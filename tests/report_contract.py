"""The report contract of the demo configs: what each run promises, apart
from the values it computes.

For each config of ``demos/configs``, run as ``demo_digests.run_demos``
runs it, ``report_contract.json`` records the exit code, the report's
top-level keys, each check's name, oracle, tolerance, mode, source and
pass flag in order, and each CSV's header and row count.
``test_demo_digests.py`` builds the manifest from its one run of the demos
and compares it exactly, under any Python, numpy and scipy versions.  A
change that moves the contract on purpose names what moved, and why, and
rewrites the manifest with

    PYTHONPATH=src python tests/report_contract.py

With ``--check`` the script only compares: it prints each line that
differs, "-" for the manifest and "+" for the run, leaves the manifest as
it is and exits 1 when a line differs:

    PYTHONPATH=src python tests/report_contract.py --check
"""

import argparse
import difflib
import json
import sys
import tempfile
from pathlib import Path

import demo_digests as dd

MANIFEST = Path(__file__).with_name("report_contract.json")
CHECK_KEYS = ("name", "oracle", "tol", "mode", "source", "pass")


def contract(outdir: Path, code: int) -> dict:
    """The contract of the one run that exited ``code`` into ``outdir``."""
    report = json.loads((outdir / "report.json").read_text())
    csvs = {}
    for path in sorted(outdir.glob("*.csv")):
        header, *rows = path.read_text().splitlines()
        csvs[path.name] = {"header": header.split(","), "rows": len(rows)}
    return {"exit": code, "report_keys": list(report),
            "checks": [{key: check[key] for key in CHECK_KEYS}
                       for check in report["checks"]],
            "csv": csvs}


def manifest(outdir: Path, codes: dict) -> dict:
    """{config stem: contract} of the demo runs under ``outdir``, with the
    exit codes ``codes`` that ``run_demos`` returned."""
    return {stem: contract(outdir / stem, code)
            for stem, code in sorted(codes.items())}


def leaves(node, path: str = "") -> list:
    """One line "path: JSON value" per leaf of a manifest, in order; a
    list of strings, such as a CSV header, is one leaf."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        items = enumerate(node)
    else:
        return [f"{path}: {json.dumps(node)}"]
    return [line for key, child in items
            for line in leaves(child, f"{path}/{key}" if path else key)]


def differences(found: dict, recorded: dict) -> list:
    """The leaf lines that differ, in order: "- " and the line of
    ``recorded``, "+ " and the line of ``found``."""
    return [f"{line[0]} {line[1:]}" for line in difflib.unified_diff(
        leaves(recorded), leaves(found), lineterm="", n=0)
        if line[:1] in "+-" and line[:3] not in ("---", "+++")]


def check(found: dict, recorded: dict) -> int:
    """Print each line where ``found`` differs from ``recorded``; 1 when
    one differs, else 0."""
    lines = differences(found, recorded)
    for line in lines:
        print(line)
    print(f"{len(lines)} manifest lines differ")
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the manifest instead of "
                             "rewriting it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        found = manifest(Path(tmp), dd.run_demos(Path(tmp)))
    if args.check:
        return check(found, json.loads(MANIFEST.read_text()))
    MANIFEST.write_text(json.dumps(found, indent=2) + "\n")
    print(f"{len(found)} contracts written to {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
