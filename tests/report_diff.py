"""Field-level differences between the pinned attack reports of two
checkouts.

    python tests/report_diff.py OLD [NEW]

builds every case pinned in tests/test_report_digests.py once with OLD's
clawbench (OLD/src) and once with NEW's (default: the checkout holding
this script), and prints each JSON field whose value differs, case by
case.  The cases and their builders are this checkout's, so both trees
run the same calls.  Not a test: pytest does not collect this file.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MISSING = "<missing>"


def build_reports():
    """Every pinned case's report, parsed, keyed by a readable label, built
    with the clawbench that is importable."""
    import test_report_digests as pinned

    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for args in pinned.DIGESTS:
            out = Path(tmp) / "report.json"
            reports[f"cli {args}"] = json.loads(pinned.cli_report(args, out))
    for table, random_f, kind in ((pinned.API_DIGESTS, True, "random F"),
                                  (pinned.SIMECK_API_DIGESTS, False,
                                   "Simeck")):
        for width, seed, backend in table:
            text = pinned.api_report(width, seed, backend, random_f)
            reports[f"api {kind} w={width} seed={seed} {backend}"] = \
                json.loads(text)
    return reports


def reports_of(checkout):
    """build_reports() run in a child process on checkout/src."""
    src = Path(checkout).resolve() / "src"
    if not (src / "clawbench").is_dir():
        sys.exit(f"{checkout}: no src/clawbench")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{HERE}")
    done = subprocess.run([sys.executable, __file__, "--build", str(src)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"building the reports of {checkout} failed:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout)


def field_diffs(old, new, path=""):
    """(path, old, new) for each differing leaf of two JSON values; list
    items that carry a "name" (the stages) are labelled by it."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from field_diffs(old.get(key, MISSING),
                                   new.get(key, MISSING),
                                   f"{path}.{key}" if path else key)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            label = a["name"] if isinstance(a, dict) and "name" in a else i
            yield from field_diffs(a, b, f"{path}[{label}]")
    elif old != new:
        yield path, old, new


def short(value, width=60):
    text = json.dumps(value) if value is not MISSING else value
    return text if len(text) <= width else text[:width - 3] + "..."


def main(argv):
    if argv[:1] == ["--build"]:
        import clawbench
        # the child must import the requested tree, not an installed copy
        if not Path(clawbench.__file__).resolve().is_relative_to(argv[1]):
            sys.exit(f"imported {clawbench.__file__}, not {argv[1]}")
        json.dump(build_reports(), sys.stdout)
        return 0
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    old = reports_of(argv[0])
    new = reports_of(argv[1] if len(argv) == 2 else HERE.parent)
    labels = list(dict.fromkeys([*old, *new]))
    differ = 0
    for label in labels:
        diffs = list(field_diffs(old.get(label, MISSING),
                                 new.get(label, MISSING)))
        if diffs:
            differ += 1
            print(label)
            for path, a, b in diffs:
                print(f"  {path or '<report>'}: {short(a)} -> {short(b)}")
    print(f"{differ} of {len(labels)} cases differ, "
          f"{len(labels) - differ} identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
