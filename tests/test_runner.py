"""Run orchestration: summaries, CSV fidelity, sweeps, worker caps and fan-out."""

import dataclasses
import math
import multiprocessing
import os
import tempfile
from itertools import chain, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scalar_reference import game_config, instances

from coase_bandits.config import (
    ConfigError,
    GameConfig,
    config_instance,
    parse_config_file,
    validate_config,
)
from coase_bandits.downstream import Phase1Batch
from coase_bandits.engine import BLOCK, Trajectory
from coase_bandits.env import draw_noise
from coase_bandits.runner import (
    TRAJECTORY_HEADER,
    RunSummary,
    SweepRow,
    _cell,
    fan_out,
    fit_loglog_slope,
    play_seed,
    read_run_summaries,
    read_sweep_table,
    simulate_command,
    simulate_run,
    summarize,
    summary_header,
    sweep,
    worker_cap,
    write_phase1_batches,
    write_run_summaries,
    write_sweep_table,
    write_trajectory,
)

DYADIC_NO_PROPERTY = GameConfig(
    mode="no-property",
    n_arms=2,
    horizon=64,
    seeds=(0, 1),
    v_up=(1.0, 0.5),
    v_down=((0.0, 0.0), (0.75, 0.0)),
    upstream_policy="best_response",
    downstream_policy="best_response",
)

BREAKDOWN_CFG = GameConfig(
    mode="no-property",
    n_arms=2,
    horizon=16384,
    seeds=(0, 1, 2),
    v_up=(1.0, 0.3),
    v_down=((0.0, 0.0), (0.9, 0.85)),
    downstream_policy="naive",
)

PROPERTY_CFG = GameConfig(
    mode="property",
    n_arms=2,
    horizon=4096,
    seeds=(7,),
    v_up=(0.9, 0.5),
    v_down=((0.2, 0.1), (0.8, 0.3)),
    c_mode="fixed:1.0",
    downstream_policy="belgic",
)


def sample_summary(**overrides):
    base = dict(
        mode="property",
        seed=3,
        horizon=4096,
        n_arms=2,
        reward_model="gaussian",
        upstream_policy="ucb",
        downstream_policy="belgic",
        r_sw=12.25,
        r_up_n=0.0,
        r_down_n=0.0,
        r_up_p=3.0 + 1e-13,
        r_down_p=-0.75,
        up_utility=4000.123456789012345,
        down_utility=812.0,
        welfare=4812.123456789012345,
        decomposition_min_slack=math.inf,
        misaligned=True,
        phase1_rounds=3072,
        tau_hat=(0.59375, 0.78125),
        a_sw=1,
        b_sw=0,
        welfare_star=1.3,
        mu_star_up=0.9,
        mu_star_down=0.4,
        delta_up=0.4,
        delta_sw=0.2,
        breakdown_bound=None,
    )
    base.update(overrides)
    return RunSummary(**base)


class TestRunSummaryRow:
    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            RunSummary.from_row(["property", "3"])


class TestSummaryFiles:
    def test_file_has_unix_endings_and_header(self, tmp_path):
        path = str(tmp_path / "run_summary.csv")
        write_run_summaries(path, [sample_summary()])
        with open(path, "rb") as fh:
            blob = fh.read()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")
        assert blob.split(b"\n")[0].decode() == ",".join(summary_header())

    def test_tampered_header_rejected(self, tmp_path):
        path = str(tmp_path / "run_summary.csv")
        write_run_summaries(path, [sample_summary()])
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[0] = lines[0].replace("r_sw", "regret")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="header"):
            read_run_summaries(path)

    def test_missing_trailing_newline_tolerated(self, tmp_path):
        path = str(tmp_path / "run_summary.csv")
        write_run_summaries(path, [sample_summary()])
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.rstrip("\n"))
        assert len(read_run_summaries(path)) == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty CSV"):
            read_run_summaries(str(path))


def written(write, records) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        write(path, records)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


def _reference_column(values: np.ndarray) -> list[str]:
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = [_cell(x) for x in bits.view(np.float64).tolist()]
    return [text[i] for i in where.tolist()]


def reference_write_trajectory(path: str, records: Trajectory) -> None:
    """The per-row writer: one %-format per row. write_trajectory formats one
    stretch at a time and must write these bytes."""
    n = len(records)
    columns = [
        records.up_arm.tolist(),
        records.down_arm.tolist(),
        _reference_column(records.gap_sw),
        _reference_column(records.gap_up),
        _reference_column(records.gap_down),
    ]
    if records.offered_arm is None:
        row = "%d,-,,,%d,%d,%s,%s,%s\n"
        values = zip(range(1, n + 1), *columns)
    else:
        row = "%d,%s,%d,%s,%d,%d,%s,%s,%s\n"
        search = records.search_rounds
        phases = chain(repeat("search", search), repeat("play", n - search))
        values = zip(
            range(1, n + 1),
            phases,
            records.offered_arm.tolist(),
            _reference_column(records.tau),
            *columns,
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\n")
        fh.writelines(map(row.__mod__, values))


# Arms and gaps from small sets, played in runs, so that stretches form and
# neighbouring runs can share cells; 0.0 and -0.0 are two different cells.
ARM_CELLS = (0, 1, 2)
GAP_CELLS = (0.0, -0.0, 0.2, 0.1 + 0.2, -0.4, 5e-324)
# Trajectory's fields in order: up_arm, down_arm, three gaps, offered_arm, tau.
FIELD_CELLS = (ARM_CELLS, ARM_CELLS, GAP_CELLS, GAP_CELLS, GAP_CELLS, ARM_CELLS, GAP_CELLS)


def trajectory_of(runs, lengths, width) -> Trajectory:
    """Row j of ``runs`` (the first ``width`` of Trajectory's fields)
    repeated lengths[j] times."""
    columns = list(zip(*runs)) or [()] * width
    dtypes = [np.intp if cells is ARM_CELLS else np.float64 for cells in FIELD_CELLS]
    return Trajectory(
        *(np.repeat(np.array(c, dtype=d), lengths) for c, d in zip(columns, dtypes))
    )


def assert_writes_the_reference(records):
    """write_trajectory's bytes are the reference writer's; a failure names
    the first line that differs instead of diffing whole files."""
    produced = written(write_trajectory, records).split("\n")
    expected = written(reference_write_trajectory, records).split("\n")
    line = next((i for i, (a, b) in enumerate(zip(produced, expected)) if a != b), None)
    assert line is None, f"line {line}: {produced[line]!r}, reference {expected[line]!r}"
    assert len(produced) == len(expected)


@st.composite
def trajectories(draw):
    width = draw(st.sampled_from((5, 7)))
    row = st.tuples(*(st.sampled_from(cells) for cells in FIELD_CELLS[:width]))
    runs = draw(st.lists(st.tuples(st.integers(1, 40), row), max_size=20))
    records = trajectory_of([r for _, r in runs], [m for m, _ in runs], width)
    if records.offered_arm is not None:
        # At 0, at n, or anywhere, so the search phase often ends inside a
        # stretch of equal offers.
        n = len(records)
        records.search_rounds = draw(st.sampled_from((0, n)) | st.integers(0, n))
    return records


class TestTrajectoryFiles:
    def test_trajectory_schema_and_values(self, tmp_path):
        from coase_bandits.config import config_instance

        inst = config_instance(DYADIC_NO_PROPERTY)
        result = simulate_run(DYADIC_NO_PROPERTY, inst, 8, 0, record_trajectory=True)
        path = str(tmp_path / "trajectory_0.csv")
        write_trajectory(path, result.records)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,phase,offered_arm,tau,up_arm,down_arm,gap_sw,gap_up,gap_down"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "-"
        assert first[2] == "" and first[3] == ""  # no offer in this mode
        assert float(first[6]) == 0.25

    def test_stretches_cross_block_boundaries(self):
        """Stretches longer than BLOCK, and stretches that open or close on a
        BLOCK boundary, in both modes."""
        rng = np.random.default_rng(5)
        lengths = [BLOCK - 1, 1, 2 * BLOCK + 3, 5, BLOCK, 7]
        for width in (5, 7):
            runs = [tuple(rng.choice(cells) for cells in FIELD_CELLS[:width]) for _ in lengths]
            records = trajectory_of(runs, lengths, width)
            records.search_rounds = BLOCK + 1 if width == 7 else 0
            assert_writes_the_reference(records)

    @settings(max_examples=200, deadline=None)
    @given(trajectories())
    @example(
        # Two runs apart only in the sign of a zero gap, under one offer
        # whose stretch the search phase ends inside.
        dataclasses.replace(
            trajectory_of([(0, 1, 0.0, 0.2, 0.0, 1, 0.5), (0, 1, -0.0, 0.2, 0.0, 1, 0.5)], [3, 4], 7),
            search_rounds=2,
        )
    )
    def test_matches_the_per_row_writer(self, records):
        assert_writes_the_reference(records)


class TestSimulateCommand:
    def test_no_property_outputs(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = GameConfig(
            mode="no-property",
            n_arms=2,
            horizon=64,
            seeds=(0, 1),
            v_up=(1.0, 0.5),
            v_down=((0.0, 0.0), (0.75, 0.0)),
            upstream_policy="best_response",
            downstream_policy="best_response",
            trajectory="full",
        )
        manifest = simulate_command(cfg, out_dir=out)
        for path in manifest["files"]:
            assert os.path.exists(path)
        names = {os.path.basename(p) for p in manifest["files"]}
        assert names == {"config_echo.cfg", "trajectory_0.csv", "trajectory_1.csv", "run_summary.csv"}

        summaries = read_run_summaries(os.path.join(out, "run_summary.csv"))
        assert [s.seed for s in summaries] == [0, 1]
        assert all(s.r_sw == 16.0 for s in summaries)  # 64 rounds x exact 0.25

        assert parse_config_file(os.path.join(out, "config_echo.cfg")) == cfg

    def test_property_run_writes_search_diagnostics(self, tmp_path):
        out = str(tmp_path / "runs")
        manifest = simulate_command(PROPERTY_CFG, out_dir=out)
        names = {os.path.basename(p) for p in manifest["files"]}
        assert "phase1_7.csv" in names
        assert "trajectory_7.csv" not in names  # trajectory defaults to none
        summary = manifest["summaries"][0]
        # whole batches only; early returns may shorten the search
        assert 0 < summary.phase1_rounds <= 3072
        assert summary.phase1_rounds % 512 == 0
        assert summary.tau_hat is not None

    def test_rerun_is_byte_identical(self, tmp_path):
        import filecmp

        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        simulate_command(PROPERTY_CFG, out_dir=out_a)
        simulate_command(PROPERTY_CFG, out_dir=out_b)
        for name in os.listdir(out_a):
            assert filecmp.cmp(os.path.join(out_a, name), os.path.join(out_b, name), shallow=False)


class TestWorkerCap:
    def test_env_variable_caps(self, monkeypatch):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", "2")
        assert worker_cap() == 2
        assert worker_cap(8) == 2
        assert worker_cap(1) == 1

    def test_without_env_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("COASE_BANDITS_WORKERS", raising=False)
        assert worker_cap() >= 1
        assert worker_cap(1) == 1

    def test_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", "0")
        assert worker_cap() == 1

    def test_non_integer_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", "two")
        with pytest.raises(ValueError, match=r"^COASE_BANDITS_WORKERS must be an integer, got 'two'$"):
            worker_cap()

    def test_without_env_counts_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("COASE_BANDITS_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_cap() == 1
        assert worker_cap(8) == 1


def _square_and_pid(x):
    return x * x, os.getpid()


WORKER_CAPS = pytest.mark.parametrize("workers", ["1", "2"])


class TestFanOut:
    @WORKER_CAPS
    def test_keeps_task_order(self, monkeypatch, workers):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", workers)
        out = fan_out(_square_and_pid, range(7))
        assert [value for value, _ in out] == [x * x for x in range(7)]
        in_process = [pid == os.getpid() for _, pid in out]
        assert all(in_process) if workers == "1" else not any(in_process)

    @WORKER_CAPS
    def test_reraises_a_worker_exception(self, monkeypatch, workers):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", workers)
        with pytest.raises(ValueError, match="math domain error"):
            fan_out(math.sqrt, [4.0, -1.0, 9.0])

    def test_max_workers_caps_the_pool(self, monkeypatch):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", "2")
        out = fan_out(_square_and_pid, range(3), max_workers=1)
        assert all(pid == os.getpid() for _, pid in out)


def _serial_and_pooled(monkeypatch, run):
    """run() under a worker cap of 1 and then of 2."""
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", workers)
        outputs.append(run(workers))
    return outputs


class TestPooledMatchesSerial:
    def test_simulate_command_files_and_manifest(self, monkeypatch, tmp_path):
        cfg = dataclasses.replace(PROPERTY_CFG, seeds=(7, 11, 3), trajectory="full")

        def run(workers):
            out = str(tmp_path / workers)
            manifest = simulate_command(cfg, out_dir=out)
            files = {}
            for path in manifest["files"]:
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
            return list(files), files, manifest["summaries"]

        serial, pooled = _serial_and_pooled(monkeypatch, run)
        assert serial[0] == pooled[0]
        assert serial[0] == [
            "config_echo.cfg",
            "trajectory_7.csv",
            "phase1_7.csv",
            "trajectory_11.csv",
            "phase1_11.csv",
            "trajectory_3.csv",
            "phase1_3.csv",
            "run_summary.csv",
        ]
        assert serial[1] == pooled[1]
        assert serial[2] == pooled[2]

    def test_criterion_2_detail(self, monkeypatch):
        from coase_bandits.acceptance import criterion_2_pathwise_decomposition

        serial, pooled = _serial_and_pooled(
            monkeypatch, lambda _: criterion_2_pathwise_decomposition()
        )
        assert serial.detail == pooled.detail
        assert (serial.number, serial.passed) == (pooled.number, pooled.passed)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched oracle reaches pool workers only through fork",
)
def test_violation_in_a_pool_worker_names_the_game(monkeypatch):
    # Lowering mu_star_down by 1 lowers every round's decomposition slack by 1,
    # so the first round of the first game breaks the inequality.
    import coase_bandits.engine as engine

    real = engine.compute_oracle
    monkeypatch.setattr(
        engine,
        "compute_oracle",
        lambda inst: dataclasses.replace(real(inst), mu_star_down=real(inst).mu_star_down - 1.0),
    )
    monkeypatch.setenv("COASE_BANDITS_WORKERS", "2")
    cfg = dataclasses.replace(
        PROPERTY_CFG, seeds=(3, 5), upstream_policy="best_response", downstream_policy="oracle"
    )
    with pytest.raises(
        RuntimeError, match=r"^round 1: player regret gaps .*; game seed 3, horizon 64$"
    ):
        sweep(cfg, [64, 128])


class TestSweep:
    def test_exact_rates_on_deterministic_doubles(self):
        rows, slope, results = sweep(DYADIC_NO_PROPERTY, [64, 128], max_workers=1)
        assert [r.horizon for r in rows] == [64, 128]
        for row in rows:
            assert row.n_seeds == 2
            assert row.mean_r_sw == 0.25 * row.horizon
            assert row.sem_r_sw == 0.0
            assert row.mean_r_sw_per_round == 0.25
            assert row.mean_r_up == 0.0 and row.mean_r_down == 0.0
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert set(results) == {(64, 0), (64, 1), (128, 0), (128, 1)}

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", "2")
        parallel = sweep(DYADIC_NO_PROPERTY, [64, 128])
        monkeypatch.setenv("COASE_BANDITS_WORKERS", "1")
        serial = sweep(DYADIC_NO_PROPERTY, [64, 128])
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        assert parallel[2] == serial[2]

    def test_unsorted_horizons_are_sorted(self):
        rows, _, _ = sweep(DYADIC_NO_PROPERTY, [128, 64], max_workers=1)
        assert [r.horizon for r in rows] == [64, 128]

    def test_duplicate_horizons_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            sweep(DYADIC_NO_PROPERTY, [64, 64], max_workers=1)

    def test_empty_horizons_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sweep(DYADIC_NO_PROPERTY, [], max_workers=1)

    def test_each_horizon_validated(self):
        # belgic cannot fit its search phase at the small horizon
        with pytest.raises(ConfigError, match="invalid search parameters"):
            sweep(PROPERTY_CFG, [64, 4096], max_workers=1)

    def test_misaligned_baseline_rate_approaches_welfare_gap(self):
        # path-wise: the per-round welfare regret is capped by delta_sw here
        # and the breakdown floor keeps it within a whisker of the cap
        rows, _, _ = sweep(BREAKDOWN_CFG, [16384], max_workers=1)
        rate = rows[0].mean_r_sw_per_round
        assert 0.19 <= rate <= 0.2 + 1e-12

    def test_property_welfare_regret_decays_sublinearly(self):
        cfg = GameConfig(
            mode="property",
            n_arms=2,
            horizon=1024,
            seeds=(0, 1, 2, 3, 4),
            v_up=(0.5, 0.9),
            v_down=((0.9, 0.0), (0.49, 0.0)),
            alpha=0.5,
            beta=0.2,
            c_mode="fixed:0.5",
            downstream_policy="belgic",
        )
        rows, slope, _ = sweep(cfg, [2**10, 2**12, 2**14])
        rates = [r.mean_r_sw_per_round for r in rows]
        assert rates[0] > rates[1] > rates[2]
        assert slope <= 0.9


@st.composite
def learning_configs(draw):
    """A (ucb, belgic) or (ucb, naive) config with K in 1..5, either reward
    model and two seeds, and the horizons around BLOCK it is valid at."""
    instance = draw(instances())
    kind = draw(st.sampled_from((("property", "ucb", "belgic"), ("no-property", "ucb", "naive"))))
    cfg = dataclasses.replace(
        game_config(kind, instance.n_arms, BLOCK),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True))),
        v_up=instance.v_up,
        v_down=instance.v_down,
        reward_model=instance.reward_model,
    )
    horizons = draw(
        st.lists(st.sampled_from((5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)), min_size=1, unique=True)
    )
    valid = []
    for horizon in horizons:
        try:
            validate_config(dataclasses.replace(cfg, horizon=horizon))
        except ConfigError:
            continue
        valid.append(horizon)
    return cfg, valid


class TestSharedNoiseSweep:
    @settings(max_examples=10, deadline=None)
    @given(case=learning_configs())
    def test_sweep_equals_games_played_alone(self, case):
        # A sweep draws each seed's noise once and plays every horizon on a
        # prefix of it; each game must equal the same game played on its own,
        # in-process and in the two-worker pool that fan_out starts for the
        # two seeds' tasks. A single-horizon case draws ahead too.
        cfg, horizons = case
        assume(horizons)
        instance = config_instance(cfg)
        alone = {
            (h, s): summarize(cfg, simulate_run(cfg, instance, h, s))
            for h in sorted(horizons)
            for s in cfg.seeds
        }
        for workers in ("1", "2"):
            with mock.patch.dict(os.environ, {"COASE_BANDITS_WORKERS": workers}):
                _, _, results = sweep(cfg, horizons)
            assert list(results) == list(alone)
            for key, summary in results.items():
                assert summary == alone[key], key
                assert summary.to_row() == alone[key].to_row(), key

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_one_task_per_seed_under_every_cap(self, workers):
        # The task list depends on the config alone: one task per seed with
        # every horizon, sorted, even when the cap of 3 exceeds the two seeds.
        with mock.patch.dict(os.environ, {"COASE_BANDITS_WORKERS": workers}), mock.patch(
            "coase_bandits.runner.fan_out", wraps=fan_out
        ) as spy:
            sweep(DYADIC_NO_PROPERTY, [128, 64])
        assert spy.call_count == 1
        assert spy.call_args.args[1] == [([DYADIC_NO_PROPERTY], [64, 128], seed) for seed in (0, 1)]


class TestPlaySeed:
    CFGS = [PROPERTY_CFG, dataclasses.replace(PROPERTY_CFG, mode="no-property", downstream_policy="naive")]

    @pytest.mark.parametrize(
        "cfgs, horizons",
        [(CFGS, [4096, 8192]), (CFGS, [4096]), ([PROPERTY_CFG], [4096])],
        ids=["paired-sweep", "criterion-2", "lone-game"],
    )
    def test_games_in_order_on_one_draw(self, cfgs, horizons):
        # Two configs on one instance, as criterion 2 plays them at one
        # horizon and a paired sweep at several, or a lone game: the seed's
        # noise is drawn once, for the largest horizon, and each summary
        # equals its game played alone; configs in order, each at every
        # horizon in order.
        with mock.patch("coase_bandits.runner.draw_noise", wraps=draw_noise) as spy:
            played = play_seed((cfgs, horizons, 7))
        assert [call.args[2] for call in spy.call_args_list] == [max(horizons)]
        instance = config_instance(PROPERTY_CFG)
        alone = [summarize(cfg, simulate_run(cfg, instance, h, 7)) for cfg in cfgs for h in horizons]
        assert [(s.mode, s.horizon) for s in played] == [(cfg.mode, h) for cfg in cfgs for h in horizons]
        assert played == alone
        assert [s.to_row() for s in played] == [s.to_row() for s in alone]


class TestSweepFiles:
    def test_write_read_round_trip(self, tmp_path):
        rows, _, _ = sweep(DYADIC_NO_PROPERTY, [64, 128], max_workers=1)
        path = str(tmp_path / "sweep.csv")
        write_sweep_table(path, rows)
        assert read_sweep_table(path) == rows

    def test_header_checked(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("wrong,header\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_sweep_table(str(path))

    def test_wrong_row_width_names_the_column_count(self, tmp_path):
        rows, _, _ = sweep(DYADIC_NO_PROPERTY, [64], max_workers=1)
        path = tmp_path / "sweep.csv"
        write_sweep_table(str(path), rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(lines[0] + "\n64,2,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^expected 14 columns, got 3$"):
            read_sweep_table(str(path))


# Every float a cell must carry bit for bit: infinities, signed zeros,
# subnormals and values that need all 17 significant digits.
cell_floats = st.one_of(
    st.floats(allow_nan=False, allow_subnormal=True),
    st.sampled_from((math.inf, -math.inf, -0.0, 0.1 + 0.2, 5e-324, 1 / 3)),
)
cell_ints = st.integers(-(2**63), 2**63)
cell_words = st.from_regex(r"[a-z_-]{1,12}", fullmatch=True)


def record_strategy(cls, **overrides):
    """A record of cls with each field drawn by its annotated type."""
    kinds = {"int": cell_ints, "float": cell_floats, "str": cell_words, "bool": st.booleans()}
    drawn = {f.name: kinds[f.type] for f in dataclasses.fields(cls) if f.type in kinds}
    return st.builds(cls, **{**drawn, **overrides})


class TestRecordCodec:
    """Each record CSV reads back bit for bit; repr tells -0.0 from 0.0."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            record_strategy(
                RunSummary,
                # An empty tau_hat would write the empty cell that means None;
                # a finished game has one estimate per arm.
                tau_hat=st.none() | st.lists(cell_floats, min_size=1, max_size=5).map(tuple),
                breakdown_bound=st.none() | cell_floats,
            ),
            max_size=4,
        )
    )
    @example([sample_summary(seed=s) for s in (0, 1, 2)])
    @example([sample_summary(tau_hat=None, breakdown_bound=204.79999999999973)])
    @example([sample_summary(r_sw=0.1 + 0.2, r_down_p=-1.0 / 3.0, welfare=1e-17, delta_up=math.inf)])
    def test_run_summaries(self, summaries):
        # Each row through to_row/from_row, and the rows through a file.
        assert repr([RunSummary.from_row(s.to_row()) for s in summaries]) == repr(summaries)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run_summary.csv")
            write_run_summaries(path, summaries)
            assert repr(read_run_summaries(path)) == repr(summaries)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(record_strategy(SweepRow), max_size=4))
    def test_sweep_rows(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.csv")
            write_sweep_table(path, rows)
            assert repr(read_sweep_table(path)) == repr(rows)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            record_strategy(
                Phase1Batch, branch=st.sampled_from(("upper", "lower", "early_return"))
            ),
            max_size=4,
        )
    )
    def test_phase1_batches_through_their_cells(self, batches):
        lines = written(write_phase1_batches, batches).split("\n")
        assert lines[0] == "arm,batch_index,tau_mid,mismatches,branch,tau_lower,tau_upper"
        assert lines[-1] == ""
        back = [
            Phase1Batch(int(a), int(i), float(mid), int(m), branch, float(lo), float(hi))
            for a, i, mid, m, branch, lo, hi in (line.split(",") for line in lines[1:-1])
        ]
        assert repr(back) == repr(batches)


class TestSlopeFit:
    def test_recovers_power_law(self):
        horizons = [256, 1024, 4096, 16384]
        values = [t**0.75 for t in horizons]
        assert fit_loglog_slope(horizons, values) == pytest.approx(0.75, rel=1e-9)

    def test_nan_on_nonpositive_values(self):
        assert math.isnan(fit_loglog_slope([10, 100], [5.0, 0.0]))

    def test_nan_on_single_point(self):
        assert math.isnan(fit_loglog_slope([10], [5.0]))


class TestSummarize:
    def test_summary_reflects_run(self):
        from coase_bandits.config import config_instance

        inst = config_instance(BREAKDOWN_CFG)
        result = simulate_run(BREAKDOWN_CFG, inst, 1024, 0)
        s = summarize(BREAKDOWN_CFG, result)
        assert s.mode == "no-property"
        assert s.seed == 0
        assert s.horizon == 1024
        assert s.misaligned
        assert s.r_sw == result.ledger.r_sw
        assert s.breakdown_bound == result.breakdown_bound
        assert s.tau_hat is None

    def test_fields_come_from_the_game_not_the_config(self):
        # A sweep's games keep the config's own horizon; the summary takes the
        # game's, and only the policy names from the config.
        cfg = dataclasses.replace(PROPERTY_CFG, horizon=8192)
        result = simulate_run(cfg, config_instance(cfg), 4096, 7)
        s = summarize(cfg, result)
        assert (s.mode, s.seed, s.horizon, s.n_arms, s.reward_model) == ("property", 7, 4096, 2, "gaussian")
        assert (s.upstream_policy, s.downstream_policy) == ("ucb", "belgic")
        assert (s.r_sw, s.welfare) == (result.ledger.r_sw, result.ledger.welfare)
        assert s.decomposition_min_slack == result.ledger.decomposition_min_slack
        assert s.tau_hat is not None and s.tau_hat == result.tau_hat
        assert (s.phase1_rounds, s.breakdown_bound) == (result.phase1_rounds, None)
        assert (s.a_sw, s.b_sw, s.delta_sw) == (result.oracle.a_sw, result.oracle.b_sw, result.oracle.delta_sw)
