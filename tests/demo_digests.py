"""SHA-256 digests of the files that the demo configs write.

Each config of ``demos/configs`` runs through ``igac.cli.main`` into a
directory of its own, with every warning raised as an error, and
``demo_digests.json`` records the digest of each file written, keyed by
``<config stem>/<file name>``, with the Python, numpy and scipy versions
that made them.  ``test_demo_digests.py`` reruns the configs and compares.
A change that moves a demo output on purpose regenerates the record with

    PYTHONPATH=src python tests/demo_digests.py

and names each file that moved, and why.  With ``--check`` the script only
compares: it prints each file whose digest differs from the record, leaves
the record as it is and exits 1 when one differs.  It compares under any
versions, where ``test_demo_digests.py`` skips:

    PYTHONPATH=src python tests/demo_digests.py --check
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy
import scipy

from igac import cli

ROOT = Path(__file__).parents[1]
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.yaml"))
RECORD = Path(__file__).with_name("demo_digests.json")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_demos(outdir: Path) -> dict:
    """Run every demo config into ``outdir / <config stem>``; returns
    {config stem: exit code}, and raises RuntimeError for a nonzero exit,
    and a warning as its error."""
    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for config in CONFIGS:
            command = config.stem if config.stem in cli._COMMANDS \
                else "scenario"
            code = cli.main([command, "--config", str(config),
                             "--out", str(outdir / config.stem)])
            if code != 0:
                raise RuntimeError(f"{config.name} exited {code}")
            codes[config.stem] = code
    return codes


def digests(outdir: Path) -> dict:
    """{relative path: SHA-256} of every file under ``outdir``."""
    return {path.relative_to(outdir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.rglob("*")) if path.is_file()}


def mismatches(outdir: Path, recorded: dict) -> list:
    """The relative paths, in order, that are written under ``outdir`` or
    recorded, but not both with the same digest."""
    found = digests(outdir)
    return sorted(name for name in found.keys() | recorded.keys()
                  if found.get(name) != recorded.get(name))


def check(outdir: Path) -> int:
    """Print each file under ``outdir`` whose digest differs from the
    record; 1 when one differs, else 0."""
    record = json.loads(RECORD.read_text())
    if record["versions"] != versions():
        print(f"recorded under {record['versions']}, running {versions()}")
    moved = mismatches(outdir, record["files"])
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(moved)} of {len(record['files'])} recorded files moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the record instead of "
                             "rewriting it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_demos(Path(tmp))
        if args.check:
            return check(Path(tmp))
        record = {"versions": versions(), "files": digests(Path(tmp))}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{len(record['files'])} digests written to {RECORD.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
