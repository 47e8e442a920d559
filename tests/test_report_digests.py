"""Attack reports stay byte-identical: SHA-256 of the JSON that
`clawbench attack run ARGS --out FILE` writes, pinned per ARGS, and of
API-built reports on random round functions, pinned per case.

A change that alters any of these digests changed a report; if that is
intended, record why in CHANGES.md and update the digest.
"""

import hashlib
import json

import pytest

from clawbench.attack import attack_report, make_pair_set, run_asr_attack
from clawbench.cipher import FeistelSpec, random_subkeys
from clawbench.cli import main

DIGESTS = {
    "--vectors paper":
        "095d77573124a02dd694afdeea0c4e241543aa52dc798ec88813119daa413d9d",
    "--vectors paper --no-extra-pair":
        "a803724e20976ea16befb4803fb3d0482ed09bdce727d7c575fbc187b0d405fe",
    # Grover misses pinned: k4 takes 4 draws (804 queries), resolve 5 (1,005)
    "--vectors paper --backend walk-sim":
        "2e95fe5a56bc27165f14175c8f51365e8dd17e0a30d8f39181d7e34ef5615c72",
    "--width 8 --random-seed 0 --backend classical":
        "938cbb4b123d24baa3ab163f0640f59de9fa7119385adf1b3090f981396c9198",
    "--width 8 --random-seed 1 --backend classical":
        "8fe7135e5e4b6a4775d4b23c0aefa3c5af2de997e5f8494958b1b75ac3a351cc",
    "--width 8 --random-seed 2 --backend classical":
        "8e26798ed17416c137345385888c3553a9a700f205eb68309355e8c5fb85917e",
    "--width 8 --random-seed 3 --backend classical":
        "a81dc9a2373e535aa0a728dbdd11bf0abd06a64952ae7d5be0d178139e3214ff",
    "--width 8 --random-seed 4 --backend classical":
        "86c1d0c72a0f573e566d812bc9e8969e65d75359b43f7b87bcc14768786089c3",
    "--width 8 --random-seed 5 --backend classical":
        "7f49b4eeb8612956db41e2e8d33fa1d5d9b365907f35bdf4d8de9f1903a40e0f",
    "--width 8 --random-seed 6 --backend classical":
        "50ead3c3ec5ff500ac9e8e1dd88527703740277f326f961c798580bfa0e86256",
    "--width 8 --random-seed 7 --backend classical":
        "324f6c329dde020d23dd2034c1d3a4aac2575548dde44226fd201a1132002a9e",
    "--width 8 --random-seed 8 --backend classical":
        "5b1a6595efc265026236fe84cab78725671baacbe60148765283769d00c83174",
    "--width 8 --random-seed 9 --backend classical":
        "a663c1b17afd23e910d9cfeb3cfbac22a79163f2c9d1f9327cd0d639347c11e8",
    "--width 8 --random-seed 0 --backend exhaustive":
        "06508b724c38a4397cc0a07e220fb9ab547d8404bf964e7daca06d0ac41a7515",
    "--width 8 --random-seed 1 --backend exhaustive":
        "9e3ca8b648201772475755263c853e1c78f6ec12e5591a0424206361bc4a4595",
    "--width 8 --random-seed 2 --backend exhaustive":
        "0f5610724c53c34ddedbfc043dc0998e988df28430e258e5a6aa9c64fb61da4d",
    "--width 8 --random-seed 3 --backend exhaustive":
        "c2d84eb9ff498f4960118b044a199d7f06fb34292a02cd0468f11221162d4b42",
    "--width 8 --random-seed 4 --backend exhaustive":
        "7fe6c89f35d4e2ec1c5173eaf666a1612f0948a24cf77abd98721e0673219e3a",
    "--width 8 --random-seed 5 --backend exhaustive":
        "d9bfeebdd66fbe62b856be0bf9b95fc04190bfedd7671edb6e2bd7474c611d40",
    "--width 8 --random-seed 6 --backend exhaustive":
        "271e8f923cc8bb5eaf2577722c68fbb9533641d28a7a02a647d3175a73341aac",
    "--width 8 --random-seed 7 --backend exhaustive":
        "43307d3927393568002e41d6389a02b7c160a8cdf9e7f75c270eaa85fb4a8f98",
    "--width 8 --random-seed 8 --backend exhaustive":
        "fe00bc5fd3f23b9f65293fbe27e9730d07b6ed9f88ae352fbc7926af77540d28",
    "--width 8 --random-seed 9 --backend exhaustive":
        "fcfd875b480f287d9392adf64df24f3cf9df0be14aa4fc4da25bcc6157787005",
    "--width 8 --random-seed 0 --backend walk-sim":
        "4819a19a5ba17a6b2ba478dd7c54cefa0001ef73460b3137bf289864c425e033",
    "--width 8 --random-seed 1 --backend walk-sim":
        "d52d636696970df4a27b3cee52642e224e8da169148de156ab3e7b9479996b96",
    "--width 8 --random-seed 2 --backend walk-sim":
        "721feffe40f190ee8ea6f90c115fba121ffaf8cc2cf3556f8db2477693664e25",
    "--width 8 --random-seed 3 --backend walk-sim":
        "a1c7cf0a61b62e1507edf93faec80076bcbc78423e14fac10ef6a5e92632947b",
    "--width 8 --random-seed 4 --backend walk-sim":
        "e13e9bbad3b21b25d5512ede46de09175ead11cd085a657793a940c2350d5f23",
    "--width 8 --random-seed 5 --backend walk-sim":
        "f118575da7c2c65a0ade1badf4fbf185f5b1701b875e1b7e3ca3dff8f509c2a0",
    "--width 8 --random-seed 6 --backend walk-sim":
        "1921773cda3b2631a86847ec13e0c5a8b992cba0e305fc44f36bf1b954a3de17",
    "--width 8 --random-seed 7 --backend walk-sim":
        "86b57a01a3b27d670136a55f866182073af8708f1462ea82c02853d0bad7a2ec",
    "--width 8 --random-seed 8 --backend walk-sim":
        "a531258088a52a9002b5b2c14e156e440ad1f5bab3ca9b3344bca45e350ff9ae",
    "--width 8 --random-seed 9 --backend walk-sim":
        "f5d87e19b84db919cefc5043703eb998dc38775865d98d6338629153f9fe7174",
}


@pytest.mark.parametrize("args", DIGESTS)
def test_report_digest(tmp_path, args):
    out = tmp_path / "report.json"
    assert main(["attack", "run", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[args]


# random round functions, run_asr_attack(seed=0) on
# make_pair_set(spec, random_subkeys(spec, s), s): width 3 walk-full has
# 2-5 claws per instance, so the digest pins the order of the claw census
# the walk samples from; width 12 walk-sim covers the walk (seeds 0, 2-4)
# and the not-unique fallback (seed 1); width 16 classical is the
# benchmark's random16 op kind (one claw on seeds 0, 2, 3 and three on
# seed 1, every resolve ambiguous between a K1 pair)
API_DIGESTS = {
    (3, 0, "walk-full"):
        "afe5660deb60354e25ddd691f7f258134c63443bd53ed2a4ccda266a007b01f7",
    (3, 1, "walk-full"):
        "13f5097e6ad73b38baa7400a2249b782738b772368abafcb43ae1638e7ffb9ac",
    (3, 2, "walk-full"):
        "a099c7d06b3972283b230bf92f378fe2efafc15fef59a484554e6109aa3ea4f8",
    (3, 3, "walk-full"):
        "bb16d6ed547dc57e9ec02c180aaa8060203727d4a6e475dc3cfc0f12d6b2681c",
    (3, 4, "walk-full"):
        "20a253288758c5604a9c8245ee8d62a192227e2edfa93eff414ef65efefaa343",
    (12, 0, "walk-sim"):
        "43bdc8032ad91a0a1b78a2c911ed2a5fe90b69dc692fe9779155e24a5fd3acb3",
    (12, 1, "walk-sim"):
        "682741b97c6b172f531ec3d27160b399928eeca375e59c9064a4800268163951",
    (12, 2, "walk-sim"):
        "80809766e666c93dbb27b6b0f294703a16a5a7d4b3679fe7d9291e56cb0a7aaf",
    (12, 3, "walk-sim"):
        "0481e92e9229d3cc05e52f17341c81d906f2311a2d57b598b0df62cf31e463e6",
    (12, 4, "walk-sim"):
        "803ca437dc26f29add8422ac779a4cbbb4d61a3ae9fca4f1aeded1caf53c13f4",
    (16, 0, "classical"):
        "418ff96e00c49beb2cbfc64fbaf1652fb2fca5d307a8674b22f72dd852af72a1",
    (16, 1, "classical"):
        "b8b1126fb796c396a79233e6321c03ed0e0bafdc8c0a056d312411a40ec1707b",
    (16, 2, "classical"):
        "76c15114e32eb9bb0fe9c4e19f8206077ef10ce98017d8a5f9e42b2a5aa1441a",
    (16, 3, "classical"):
        "e5be9197bb0d0aa6a5dfe7a55417f432453d453b51b4a5cf5787fd85e76b84ed",
}


@pytest.mark.parametrize("width,seed,backend", API_DIGESTS)
def test_api_report_digest(width, seed, backend):
    spec = FeistelSpec(word_width=width, round_function="random", seed=seed)
    pair_set = make_pair_set(spec, random_subkeys(spec, seed), seed)
    recovered, stats, stages = run_asr_attack(pair_set, spec,
                                              backends=backend)
    text = json.dumps(attack_report(pair_set, spec, recovered, stats, stages,
                                    backend), indent=2, sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == API_DIGESTS[width, seed, backend])


# Simeck w=12 with random_subkeys(spec, s), run_asr_attack(seed=0) on
# walk-sim: the claw stage falls back and 3 of the Grover draws miss on
# each (of 6 on seed 0, of 9 on seed 1), so the digests pin the draws
SIMECK_API_DIGESTS = {
    (12, 0, "walk-sim"):
        "5bc33ec027d30984579ad81c2bc2fac7ce6cb6819afc32db2a6d3213cb8c7dac",
    (12, 1, "walk-sim"):
        "5b9dc09e5133f847298c71c229b65ef9be91e36f8c7055f8e724cd1e0973699a",
}


@pytest.mark.parametrize("width,seed,backend", SIMECK_API_DIGESTS)
def test_simeck_api_report_digest(width, seed, backend):
    spec = FeistelSpec(word_width=width)
    pair_set = make_pair_set(spec, random_subkeys(spec, seed), seed)
    recovered, stats, stages = run_asr_attack(pair_set, spec,
                                              backends=backend)
    text = json.dumps(attack_report(pair_set, spec, recovered, stats, stages,
                                    backend), indent=2, sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == SIMECK_API_DIGESTS[width, seed, backend])


def test_paper_vectors_walk_sim_fall_back_to_the_sorted_census(tmp_path):
    """256 claws: the collapsed walk needs a unique claw, so the claw
    stage reports the sorted census it already has."""
    out = tmp_path / "report.json"
    assert main(["attack", "run", "--vectors", "paper", "--backend",
                 "walk-sim", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True
    claw_stage = report["stages"][0]
    assert claw_stage["backend"] == "walk-collapsed->sorted (claw not unique)"
    assert len(claw_stage["result_hex"]) == 256
