"""Smoke tests: each demo runs as a script and prints its headline fact."""

import os
import runpy
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")


def run_demo(name, monkeypatch, capsys):
    path = os.path.join(DEMOS, name)
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


FACTS = {
    "classical_attack.py": ("verified: True", "uniqueness: unique"),
    "quantum_toy_attack.py": ("walk expected oracle queries to a first "
                              "claw: 5835", "backends agree: True"),
    "reference_vectors.py": ("master key: B0AE C7E9 C3CE E6C3",
                             "rule-constrained plaintexts",
                             "extra non-rule pair:"),
    "walk_scaling.py": ("queries classical  success_p",
                        "  4096   256  13    16     1344",
                        "log-log slope of queries vs N:"),
}


@pytest.mark.parametrize("name", sorted(FACTS))
def test_demo_prints_its_result(name, monkeypatch, capsys):
    out = run_demo(name, monkeypatch, capsys)
    for fact in FACTS[name]:
        assert fact in out, (name, fact)
