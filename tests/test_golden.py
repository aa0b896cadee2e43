"""Golden outputs: `simulate configs/belgic.cfg` (criterion 8's Belgic
config), criterion 8's no-property config and `scripts/trace_phase1.py`
reproduce the committed files byte for byte, and each written trajectory
reads back to its run summary."""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from coase_bandits.acceptance import DETERMINISM_CONFIGS
from coase_bandits.config import parse_config_file
from coase_bandits.runner import TRAJECTORY_HEADER, simulate_command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "belgic")
GOLDEN_FILES = (
    "config_echo.cfg",
    "run_summary.csv",
    "trajectory_7.csv",
    "trajectory_11.csv",
    "phase1_7.csv",
    "phase1_11.csv",
)
# Criterion 8's no-property config (UCB against the naive downstream on the
# breakdown instance); its trajectories have no offer or phase cells.
BREAKDOWN_GOLDEN = os.path.join(ROOT, "tests", "golden", "breakdown")
BREAKDOWN_FILES = ("config_echo.cfg", "run_summary.csv", "trajectory_7.csv", "trajectory_11.csv")


@pytest.fixture(scope="module")
def belgic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("belgic")
    cfg = parse_config_file(os.path.join(ROOT, "configs", "belgic.cfg"))
    manifest = simulate_command(cfg, out_dir=str(out))
    return out, manifest


@pytest.fixture(scope="module")
def breakdown_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("breakdown")
    manifest = simulate_command(DETERMINISM_CONFIGS[1], out_dir=str(out))
    return out, manifest


def assert_same_bytes(out, golden, name):
    with open(os.path.join(out, name), "rb") as fh:
        produced = fh.read()
    with open(os.path.join(golden, name), "rb") as fh:
        expected = fh.read()
    assert produced == expected, f"{name} differs from {os.path.relpath(golden, ROOT)}/{name}"


def test_belgic_cfg_is_criterion_8s_belgic_config():
    # Criterion 8's detail line shows only file counts, so this golden run is
    # what pins its first config.
    cfg = parse_config_file(os.path.join(ROOT, "configs", "belgic.cfg"))
    assert replace(cfg, output_dir=DETERMINISM_CONFIGS[0].output_dir) == DETERMINISM_CONFIGS[0]


def test_writes_exactly_the_golden_files(belgic_run):
    _, manifest = belgic_run
    assert sorted(os.path.basename(p) for p in manifest["files"]) == sorted(GOLDEN_FILES)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_file_is_byte_identical(belgic_run, name):
    assert_same_bytes(belgic_run[0], GOLDEN, name)


def test_breakdown_writes_exactly_the_golden_files(breakdown_run):
    _, manifest = breakdown_run
    assert sorted(os.path.basename(p) for p in manifest["files"]) == sorted(BREAKDOWN_FILES)


@pytest.mark.parametrize("name", BREAKDOWN_FILES)
def test_breakdown_file_is_byte_identical(breakdown_run, name):
    assert_same_bytes(breakdown_run[0], BREAKDOWN_GOLDEN, name)


@pytest.mark.parametrize("run", ["belgic_run", "breakdown_run"])
def test_trajectory_reads_back_to_its_summary(run, request):
    """t runs 1..T, the search rows are the summary's phase1_rounds, and the
    in-order float sum of gap_sw is the summary's r_sw bit for bit."""
    out, manifest = request.getfixturevalue(run)
    for summary in manifest["summaries"]:
        with open(os.path.join(out, f"trajectory_{summary.seed}.csv"), encoding="utf-8", newline="") as fh:
            header, *rows = (line.split(",") for line in fh.read().split("\n")[:-1])
        assert header == TRAJECTORY_HEADER
        t, phase, gap_sw = (header.index(c) for c in ("t", "phase", "gap_sw"))
        assert [int(row[t]) for row in rows] == list(range(1, summary.horizon + 1))
        assert sum(row[phase] == "search" for row in rows) == summary.phase1_rounds
        r_sw = 0.0
        for row in rows:  # one addition per round, in order (not sum()'s)
            r_sw += float(row[gap_sw])
        assert r_sw.hex() == summary.r_sw.hex(), f"seed {summary.seed}"


def run_trace_phase1(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", "trace_phase1.py")
    return subprocess.run([sys.executable, script, *args], env=env, capture_output=True)


def test_trace_phase1_script_output():
    done = run_trace_phase1()
    assert done.returncode == 0, done.stderr
    produced = done.stdout
    with open(os.path.join(ROOT, "tests", "golden", "trace_phase1.txt"), "rb") as fh:
        expected = fh.read()
    assert produced == expected, "scripts/trace_phase1.py differs from tests/golden/trace_phase1.txt"


def derived_belgic_cfg(tmp_path, old, new):
    derived = tmp_path / "derived.cfg"
    with open(os.path.join(ROOT, "configs", "belgic.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    derived.write_text(text.replace(old, new), encoding="utf-8")
    return str(derived)


# The no-property breakdown config, belgic.cfg with the oracle downstream, and
# belgic.cfg on the theoretical certificate scale, whose mismatch threshold
# does not validate.
@pytest.mark.parametrize(
    "edit, message",
    [
        (None, "the search needs mode = property with the belgic downstream"),
        (("policy = belgic", "policy = oracle"), "the search needs mode = property with the belgic downstream"),
        (("c_mode = fixed:1.0", "c_mode = theoretical"), "invalid search parameters: mismatch threshold"),
    ],
    ids=["no-property", "oracle-downstream", "theoretical-scale"],
)
def test_trace_phase1_refuses_configs_without_a_search(tmp_path, edit, message):
    if edit is None:
        path = os.path.join(ROOT, "configs", "breakdown.cfg")
    else:
        path = derived_belgic_cfg(tmp_path, *edit)
    done = run_trace_phase1("--config", path)
    err = done.stderr.decode()
    assert (done.returncode, done.stdout) == (1, b"")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_trace_phase1_refuses_a_negative_seed():
    done = run_trace_phase1("--seed", "-1")
    assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"error: --seed must be >= 0, got -1\n")
