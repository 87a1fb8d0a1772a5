"""Every demo config writes the bytes recorded in demo_digests.json.

The record holds the Python, numpy and scipy versions that made it.  Under
other versions the comparison is skipped, with both sets named: the
outputs carry 17 significant digits, and a library's own change of
round-off (a special function, a SIMD loop) moves them without any change
here.  Regenerate the record with ``python tests/demo_digests.py``.
"""

import json
import shutil

import pytest

import demo_digests as dd


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("demos")
    dd.run_demos(out)
    return out


def test_demo_outputs_match_the_recorded_digests(demo_out):
    record = json.loads(dd.RECORD.read_text())
    if dd.versions() != record["versions"]:
        pytest.skip(f"digests recorded under {record['versions']}, running "
                    f"{dd.versions()}")
    assert dd.mismatches(demo_out, record["files"]) == []


def test_one_changed_byte_fails_the_comparison(demo_out, tmp_path):
    copy = tmp_path / "demos"
    shutil.copytree(demo_out, copy)
    name = "iho/volume.csv"
    data = bytearray((copy / name).read_bytes())
    data[len(data) // 2] ^= 1
    (copy / name).write_bytes(bytes(data))
    assert dd.mismatches(copy, dd.digests(demo_out)) == [name]
    assert dd.mismatches(demo_out, dd.digests(demo_out)) == []
