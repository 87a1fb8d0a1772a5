"""Every demo config writes the bytes recorded in demo_digests.json.

The record holds the Python, numpy and scipy versions that made it.  Under
other versions the comparison is skipped, with both sets named: the
outputs carry 17 significant digits, and a library's own change of
round-off (a special function, a SIMD loop) moves them without any change
here.  Regenerate the record with ``python tests/demo_digests.py``, or
compare under any versions with ``python tests/demo_digests.py --check``.
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


def _one_byte_changed(demo_out, tmp_path):
    """A copy of the demo outputs with one bit of iho/volume.csv flipped."""
    copy, name = tmp_path / "demos", "iho/volume.csv"
    shutil.copytree(demo_out, copy)
    data = bytearray((copy / name).read_bytes())
    data[len(data) // 2] ^= 1
    (copy / name).write_bytes(bytes(data))
    return copy


def test_one_changed_byte_fails_the_comparison(demo_out, tmp_path):
    copy = _one_byte_changed(demo_out, tmp_path)
    assert dd.mismatches(copy, dd.digests(demo_out)) == ["iho/volume.csv"]
    assert dd.mismatches(demo_out, dd.digests(demo_out)) == []


def test_check_names_the_moved_file_and_keeps_the_record(demo_out, tmp_path,
                                                         capsys):
    record = dd.RECORD.read_bytes()
    assert dd.check(_one_byte_changed(demo_out, tmp_path)) == 1
    assert "moved: iho/volume.csv" in capsys.readouterr().out.splitlines()
    assert dd.RECORD.read_bytes() == record
