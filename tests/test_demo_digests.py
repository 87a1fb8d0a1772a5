"""Every demo config writes the bytes recorded in demo_digests.json, and
keeps the contract recorded in report_contract.json.

The record holds the Python, numpy and scipy versions that made it.  Under
other versions the comparison is skipped, with both sets named: the
outputs carry 17 significant digits, and a library's own change of
round-off (a special function, a SIMD loop) moves them without any change
here.  Regenerate the record with ``python tests/demo_digests.py``, or
compare under any versions with ``python tests/demo_digests.py --check``.

The contract (exit codes, report keys, each check's name, oracle,
tolerance, mode, source and pass flag, and each CSV's header and row
count) is compared under any versions, from the same one run of the
demos; ``python tests/report_contract.py`` rewrites it.
"""

import copy
import json
import shutil

import pytest

import demo_digests as dd
import report_contract as rc


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demos")
    return out, dd.run_demos(out)


@pytest.fixture(scope="module")
def demo_out(demo_run):
    return demo_run[0]


@pytest.fixture(scope="module")
def demo_contract(demo_run):
    return rc.manifest(*demo_run)


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


def test_demo_runs_keep_the_recorded_contract(demo_contract):
    recorded = json.loads(rc.MANIFEST.read_text())
    assert rc.differences(demo_contract, recorded) == []
    assert len(recorded) == len(dd.CONFIGS)


@pytest.mark.parametrize("key,value", [("name", "ricci_scalar_renamed"),
                                       ("oracle", -1.25), ("tol", 1e-05)])
def test_a_changed_check_fails_the_contract(demo_contract, key, value):
    edited = copy.deepcopy(demo_contract)
    check = edited["wavepacket"]["checks"][3]
    assert check["name"] == "ricci_scalar"
    old, check[key] = check[key], value
    line = f"wavepacket/checks/3/{key}: "
    assert rc.differences(edited, demo_contract) == [
        f"- {line}{json.dumps(old)}", f"+ {line}{json.dumps(value)}"]
    assert rc.differences(demo_contract, demo_contract) == []


def test_a_changed_csv_column_fails_the_check(demo_contract, capsys):
    edited = copy.deepcopy(demo_contract)
    header = edited["wavepacket"]["csv"]["complexity.csv"]["header"]
    assert header == ["tau", "delta_v", "igc", "ige"]
    header[2] = "c"
    assert rc.check(edited, demo_contract) == 1
    line = "wavepacket/csv/complexity.csv/header: "
    assert capsys.readouterr().out.splitlines() == [
        f'- {line}["tau", "delta_v", "igc", "ige"]',
        f'+ {line}["tau", "delta_v", "c", "ige"]',
        "2 manifest lines differ"]
    assert rc.check(demo_contract, demo_contract) == 0
