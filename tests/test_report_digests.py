"""Attack reports stay byte-identical: SHA-256 of the JSON that
`clawbench attack run ARGS --out FILE` writes, pinned per ARGS, and of
API-built reports on random round functions, pinned per case.

A change that alters any of these digests changed a report; if that is
intended, record why in CHANGES.md, with the field-level differences that
`python tests/report_diff.py PARENT_CHECKOUT` prints, and update the
digest.
"""

import hashlib
import json

import pytest

from clawbench import vectors
from clawbench.attack import (ChosenPairSet, attack_report, make_pair_set,
                              run_asr_attack)
from clawbench.cipher import FeistelSpec, random_subkeys
from clawbench.cli import main

DIGESTS = {
    "--vectors paper":
        "095d77573124a02dd694afdeea0c4e241543aa52dc798ec88813119daa413d9d",
    "--vectors paper --no-extra-pair":
        "a803724e20976ea16befb4803fb3d0482ed09bdce727d7c575fbc187b0d405fe",
    # BBHT expected queries: k5 249 (M = 2), k4 56 (M = 32), resolve 174
    # (M = 4)
    "--vectors paper --backend walk-sim":
        "6077dbb0ceb6d6f5a8548037bc9449dfc1cbc18fe4ee13bf2a815972184f63d4",
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
        "009d25ba2bf4bf0f36e0706d94f136037cc924cdb87fa5fffa5486b4b51a43b9",
    "--width 8 --random-seed 1 --backend walk-sim":
        "7d3dcba389416ceb78183d4b3794286f481ca5e21187d90f19cfbe596cf74a9e",
    "--width 8 --random-seed 2 --backend walk-sim":
        "486b4da3b7b9b1fda4f72e60268c13a0d24be53a24f3fbbd154cd4c6975fadd2",
    "--width 8 --random-seed 3 --backend walk-sim":
        "4a343e1c452e8d75ff8afe3cae5d7c540b758a33fed279c187dda413c6779c0b",
    "--width 8 --random-seed 4 --backend walk-sim":
        "0514eb17e489917f963f1293507f98418ff637e1ca5bf1bdf48cb094e4570453",
    "--width 8 --random-seed 5 --backend walk-sim":
        "48bae5292eac11d059284540c7cddd1cac9fc5306bfa68fcd3418641d3b007d5",
    "--width 8 --random-seed 6 --backend walk-sim":
        "72be92326bb71315637d743a1451fa20eaf12c96445770e299fab8c55711fd40",
    "--width 8 --random-seed 7 --backend walk-sim":
        "e6b56c355ceb852458f5e619f5058c8ca6ed78cb87f368202201be3bdc786ea9",
    "--width 8 --random-seed 8 --backend walk-sim":
        "930e194e0467bbad5bf51c4da377a21c6708130c5d056ae24f269a5bcbe96979",
    "--width 8 --random-seed 9 --backend walk-sim":
        "1750adbb915a36d0848e0acf0d70b58168e7f6da0959d792d1e2a84d3258b9c7",
}


def cli_report(args, out):
    """The bytes `clawbench attack run ARGS --out out` writes."""
    assert main(["attack", "run", *args.split(), "--out", str(out)]) == 0
    return out.read_bytes()


def api_report(width, seed, backend, random_f):
    """The JSON text of run_asr_attack's report on
    make_pair_set(spec, random_subkeys(spec, seed), seed), where spec is
    the random round function of spec seed `seed` or else Simeck."""
    spec = (FeistelSpec(word_width=width, round_function="random", seed=seed)
            if random_f else FeistelSpec(word_width=width))
    pair_set = make_pair_set(spec, random_subkeys(spec, seed), seed)
    recovered, stats, stages = run_asr_attack(pair_set, spec,
                                              backends=backend)
    return json.dumps(attack_report(pair_set, spec, recovered, stats, stages,
                                    backend), indent=2, sort_keys=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args", DIGESTS)
def test_report_digest(tmp_path, args):
    assert sha256(cli_report(args, tmp_path / "report.json")) == DIGESTS[args]


# random round functions, run_asr_attack on
# make_pair_set(spec, random_subkeys(spec, s), s): width 3 walk-full has
# 2-5 claws per instance, so the digest pins the full walk's expected
# cost over several marked claws and the census order the later stages
# take the claws in; width 12 walk-sim covers the collapsed walk's
# expected cost (seeds 0, 2-4) and the not-unique fallback (seed 1);
# width 16 classical is the benchmark's random16 op kind (one claw on
# seeds 0, 2, 3 and three on seed 1, every resolve ambiguous between a
# K1 pair)
API_DIGESTS = {
    (3, 0, "walk-full"):
        "c638520469ef7f5dbe9a454c762196881ffb6e31e56253d9b75e9531d2430a5a",
    (3, 1, "walk-full"):
        "adf65de75e64f603a7a229d517fd0a20c3a59acfdad79adcea44d07a3531a6d1",
    (3, 2, "walk-full"):
        "5de19cb399280537f9cf61f73838bb75a08a1b2d8f84cb59fbee7e3d64d9751e",
    (3, 3, "walk-full"):
        "fd56bbb97b227ba7681afba245665b8515da43148e37c53838a11e7596eecb1a",
    (3, 4, "walk-full"):
        "aac3c09057c8d8b62bdd3207d7c982448b512ecb0f2f7134735a41a8794b9083",
    (12, 0, "walk-sim"):
        "ecb3b13e2dc989e9d3547b3d18d316d63cd188e0afdd9a31ed710b11affb4469",
    (12, 1, "walk-sim"):
        "adfa681bda620af9a4728858ea1890a07f7ffa5c52e563b39eeaa9b1e1ae0955",
    (12, 2, "walk-sim"):
        "a5e3d8de03d59bafe6b634fc5b2055ea48bdc7ec127da3c2082ca5745dfa7924",
    (12, 3, "walk-sim"):
        "356f5247763bbeec6d96d7efe50fa9741b8ae7f7eb4f59ac90f3ede049f62d0d",
    (12, 4, "walk-sim"):
        "64ba572f96c7aa4590fee549b5dffbdbee022c8bed61c320928cb02ee7fb2405",
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
    text = api_report(width, seed, backend, random_f=True)
    assert sha256(text.encode()) == API_DIGESTS[width, seed, backend]


# Simeck w=12 with random_subkeys(spec, s), run_asr_attack on
# walk-sim: the claw stage falls back, so the digests pin the Grover
# stages' BBHT figures alone
SIMECK_API_DIGESTS = {
    (12, 0, "walk-sim"):
        "b0788105b120cfa3cfd1f5ca948bcf751dd6ae23db4c94df1e356e7812be22ff",
    (12, 1, "walk-sim"):
        "395b870c5556f579ee26664cd7b3fd8acade1a2b6959a2c9573efe5051affa13",
}


@pytest.mark.parametrize("width,seed,backend", SIMECK_API_DIGESTS)
def test_simeck_api_report_digest(width, seed, backend):
    text = api_report(width, seed, backend, random_f=False)
    assert sha256(text.encode()) == SIMECK_API_DIGESTS[width, seed, backend]


@pytest.mark.parametrize("random_f", [False, True],
                         ids=["paper", "random-f-w12-0"])
def test_walk_sim_report_does_not_depend_on_seed(random_f):
    """The attack makes no random draw: on the paper vectors the claw
    stage falls back to the sorted census, on random F w=12 (spec seed 0,
    one claw) the walk runs and is charged its expected cost, and every
    Grover stage is charged its expected cost."""
    if random_f:
        spec = FeistelSpec(word_width=12, round_function="random", seed=0)
        pair_set = make_pair_set(spec, random_subkeys(spec, 0), 0)
    else:
        spec = vectors.SPEC
        pair_set = ChosenPairSet(vectors.CONSTANT_C,
                                 tuple(zip(vectors.PLAINTEXTS,
                                           vectors.CIPHERTEXTS)),
                                 vectors.EXTRA_PAIR)
    reports = set()
    for seed in (0, 1, 7):
        recovered, stats, stages = run_asr_attack(pair_set, spec,
                                                  "walk-sim", seed=seed)
        reports.add(json.dumps(attack_report(pair_set, spec, recovered,
                                             stats, stages, "walk-sim"),
                               sort_keys=True))
        assert stages[0]["backend"] == ("walk-collapsed" if random_f else
                                        "walk-collapsed->sorted "
                                        "(claw not unique)")
    assert len(reports) == 1


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
