import csv
import os
import platform
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdtrack.bench import PROTOCOL_KEYS, ConfigError, ProtocolConfig, configure
from crowdtrack.data import min_pairwise_separation, parse_trajectories
from crowdtrack import cli, data
from crowdtrack.cli import GRID_PREFIX, RUN_KEYS, RunConfig, apply_setting, main


def run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_deterministic_output_bytes(self, tmp_path):
        out = tmp_path / "a"
        cmd = ["simulate", "--kind", "head_on", "--agents", 2,
               "--seed", 7, "--out", out]
        assert run(cmd) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("trajectories.csv", "config.echo")}
        assert run(cmd) == 0
        for name, content in first.items():
            assert (out / name).read_bytes() == content

    def test_circle_output_passes_separation_check(self, tmp_path):
        out = tmp_path / "circle"
        assert run(["simulate", "--kind", "circle", "--agents", 8,
                    "--seed", 3, "--out", out]) == 0
        scenario = parse_trajectories(out / "trajectories.csv")
        assert min_pairwise_separation(scenario) >= 2 * 0.2 - 1e-6

    def test_missing_kind_is_config_error(self, tmp_path):
        assert run(["simulate", "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("extra, key", [(["--set", "rvo.dt=4e-6"], "rvo.dt"),
                                            (["--steps", 10_001], "steps")])
    def test_too_many_steps_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                     extra, key):
        monkeypatch.setattr(data, "crowd_step", lambda *a, **k: pytest.fail("ran"))
        assert run(["simulate", "--kind", "circle", "--agents", 8, *extra,
                    "--out", tmp_path / "x"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_kind_is_config_error(self, tmp_path):
        assert run(["simulate", "--kind", "spiral", "--out", tmp_path / "x"]) == 2

    def test_missing_required_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestPredict:
    def test_zero_noise_lin_reports_zero_cells(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = run(["predict", "--kind", "corridor", "--agents", 1, "--seed", 1,
                    "--model", "lin", "--filter", "pf", "--out", out,
                    "--set", "noise.sigma_position=0", "--set", "noise.sigma_velocity=0",
                    "--set", "noise.sigma_desired=0", "--set", "hpf.k=1",
                    "--set", "hpf.pi=1.0", "--set", "hpf.m=20"])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "dataset,model,filter,L,mean_error_m,n_trials"
        for line in lines[1:]:
            assert float(line.split(",")[4]) < 1e-9

    def test_hpf_k1_matches_pf_exactly(self, tmp_path):
        common = ["--kind", "crossing", "--agents", 2, "--seed", 5,
                  "--model", "rvo+", "--set", "hpf.m=60",
                  "--set", "obs.noise=0.1"]
        out_pf, out_h = tmp_path / "pf", tmp_path / "hpf"
        assert run(["predict", *common, "--filter", "pf", "--out", out_pf,
                    "--set", "hpf.k=1", "--set", "hpf.pi=1.0"]) == 0
        assert run(["predict", *common, "--filter", "hpf", "--out", out_h,
                    "--set", "hpf.k=1", "--set", "hpf.pi=1.0"]) == 0

        def numeric_rows(path):
            lines = (path / "report.csv").read_text().splitlines()[1:]
            # Drop the filter-label column; every value must match exactly.
            return [[c for i, c in enumerate(line.split(",")) if i != 2]
                    for line in lines]

        assert numeric_rows(out_pf) == numeric_rows(out_h)

    def test_short_scenario_exits_3(self, tmp_path):
        code = run(["predict", "--kind", "corridor", "--agents", 1, "--seed", 0,
                    "--steps", 4, "--out", tmp_path / "x"])
        assert code == 3

    def test_missing_input_file_exits_4(self, tmp_path):
        code = run(["predict", "--input", tmp_path / "nope.csv", "--out", tmp_path / "x"])
        assert code == 4

    def test_rows_for_each_horizon(self, tmp_path):
        out = tmp_path / "rows"
        assert run(["predict", "--kind", "crossing", "--agents", 2, "--seed", 2,
                    "--out", out, "--set", "hpf.m=40"]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        horizons = [int(line.split(",")[3]) for line in lines[1:]]
        assert horizons == [5, 15, 30]


class TestTrack:
    def test_clean_trace_all_success(self, tmp_path):
        out = tmp_path / "t"
        code = run(["track", "--kind", "corridor", "--agents", 2, "--seed", 4,
                    "--model", "rvo+", "--filter", "pf", "--out", out,
                    "--set", "hpf.k=1", "--set", "hpf.pi=1.0", "--set", "hpf.m=80"])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "dataset,model,filter,N,st,ids,lost,n_tracks"
        for line in lines[1:]:
            parts = line.split(",")
            st, ids, lost, n = (int(p) for p in parts[4:8])
            assert st == n and ids == 0 and lost == 0

    def test_runs_one_tracking_protocol_on_ground_truth_without_noise(self, tmp_path,
                                                                       monkeypatch):
        calls = []
        original = cli.run_tracking_protocol

        def counted(*args, **kwargs):
            calls.append(kwargs["trace"])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "corrupt", lambda *a, **k: pytest.fail("drew a trace"))
        monkeypatch.setattr(cli, "run_tracking_protocol", counted)
        assert run(["track", "--kind", "corridor", "--agents", 2, "--seed", 4,
                    "--out", tmp_path / "t", "--set", "hpf.m=20"]) == 0
        assert calls == [None]

    def test_bad_pi_exits_2_naming_pi(self, tmp_path, capsys):
        code = run(["track", "--kind", "corridor", "--agents", 2, "--out", tmp_path / "x",
                    "--set", "hpf.pi=0.7,0.1"])
        assert code == 2
        assert "pi" in capsys.readouterr().err

    def test_occlusion_flag_round_trip(self, tmp_path):
        out = tmp_path / "occ"
        code = run(["track", "--kind", "corridor", "--agents", 2, "--seed", 4,
                    "--out", out, "--obs-noise", 0.1,
                    "--occlusions", "0:5:2;1:9:2", "--set", "hpf.m=50"])
        assert code == 0
        echo = (out / "config.echo").read_text()
        assert "occlusions = 0:5:2;1:9:2" in echo

    def test_occlusion_window_outside_span_exits_2(self, tmp_path):
        code = run(["track", "--kind", "corridor", "--agents", 2, "--seed", 4,
                    "--steps", 10, "--out", tmp_path / "x",
                    "--occlusions", "0:8:20"])
        assert code == 2


class TestSweep:
    def test_grid_from_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# sweep over velocity noise\n"
            "kind = corridor\n"
            "agents = 1\n"
            "model = lin\n"
            "filter = pf\n"
            "hpf.k = 1\n"
            "hpf.pi = 1.0\n"
            "hpf.m = 20\n"
            "noise.sigma_position = 0\n"
            "noise.sigma_velocity = 0\n"
            "noise.sigma_desired = 0\n"
            "sweep.objective = mean_error\n"
            "sweep.seeds = 0,1\n"
            "sweep.grid.noise.sigma_velocity = 0.2;0.0\n")
        out = tmp_path / "s"
        code = run(["sweep", "--config", config, "--out", out])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "noise.sigma_velocity,objective"
        assert len(lines) == 3
        best_line = min(lines[1:], key=lambda l: float(l.split(",")[1]))
        assert best_line.startswith("0.0")

    def test_sweep_without_grid_exits_2(self, tmp_path):
        assert run(["sweep", "--kind", "corridor", "--out", tmp_path / "x"]) == 2

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\nkind = head_on\nagents = 2\n")
        out1 = tmp_path / "o1"
        assert run(["simulate", "--config", config, "--seed", 9, "--out", out1]) == 0
        echo = (out1 / "config.echo").read_text()
        assert "seed = 9" in echo
        assert "kind = head_on" in echo

    LIN_SWEEP = ["sweep", "--kind", "corridor", "--agents", 1, "--model", "lin",
                 "--filter", "pf", "--set", "hpf.k=1", "--set", "hpf.pi=1.0",
                 "--set", "hpf.m=20"]

    def test_integer_grid_key_reports_integer_rows(self, tmp_path):
        out = tmp_path / "m"
        assert run(self.LIN_SWEEP + ["--set", "sweep.grid.hpf.m=30;40", "--out", out]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "hpf.m,objective"
        assert [line.split(",")[0] for line in lines[1:]] == ["30", "40"]

    def test_bench_key_in_grid_runs(self, tmp_path):
        out = tmp_path / "thr"
        assert run(self.LIN_SWEEP + ["--set", "sweep.grid.bench.threshold=0.4;0.5",
                                     "--out", out]) == 0
        assert len((out / "report.csv").read_text().splitlines()) == 3

    def test_input_file_is_parsed_and_run_once_without_a_drawn_trace(self, tmp_path, capsys,
                                                                      monkeypatch):
        from crowdtrack import bench, cli
        data = tmp_path / "crossing"
        assert run(["simulate", "--kind", "crossing", "--agents", 2, "--seed", 1,
                    "--out", data]) == 0
        calls = {"parse": 0, "predict": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "parse_trajectories", counted("parse", cli.parse_trajectories))
        monkeypatch.setattr(bench, "run_prediction_protocol",
                            counted("predict", bench.run_prediction_protocol))
        capsys.readouterr()
        best = []
        for seeds in ("0", "0,1,2,3"):
            calls.update(parse=0, predict=0)
            assert run(["sweep", "--input", data / "trajectories.csv", "--set", "hpf.k=1",
                        "--set", "hpf.pi=1.0", "--set", "sweep.grid.hpf.m=20;30",
                        "--set", f"sweep.seeds={seeds}", "--out", tmp_path / "s"]) == 0
            assert calls == {"parse": 1, "predict": 2}
            best.append(capsys.readouterr().out.splitlines()[0])
        assert best[0] == best[1]

    def test_st_objective_without_noise_tracks_ground_truth(self, tmp_path):
        out = tmp_path / "st"
        assert run(self.LIN_SWEEP + ["--set", "sweep.objective=st",
                                     "--set", "sweep.grid.bench.threshold=1e-9;0.5",
                                     "--out", out]) == 0
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert float(rows[0][1]) == 0.0 > float(rows[1][1])

    @pytest.mark.parametrize("key", ["nope", "obs.noise"])
    def test_grid_takes_protocol_keys_only(self, tmp_path, capsys, key):
        setting = f"sweep.grid.{key}=0.1;0.2"
        assert run(self.LIN_SWEEP + ["--set", setting, "--out", tmp_path / "x"]) == 2
        assert f"'sweep.grid.{key}'" in capsys.readouterr().err


TRACK = ["track", "--kind", "corridor", "--agents", 2, "--seed", 5, "--steps", 20,
         "--obs-noise", 0.3, "--set", "hpf.m=30"]
PREDICT = ["predict", "--kind", "crossing", "--agents", 2, "--seed", 2, "--set", "hpf.m=30"]
SWEEP = ["sweep", "--kind", "crossing", "--agents", 2, "--set", "sweep.grid.hpf.m=10"]
DT_ROWS = "frame,id,x,y\n0,1,0.0,0.0\n1,1,0.1,0.0\n"


@pytest.mark.parametrize("argv, code, key", [
    (TRACK + ["--set", "obs.sigma=0"], 2, "obs.sigma"),
    (TRACK + ["--set", "obs.sigma=inf"], 2, "obs.sigma"),
    # The likelihood's variance sigma**2 would underflow to 0 or overflow.
    (TRACK + ["--set", "obs.sigma=1e-300"], 2, "obs.sigma"),
    (TRACK + ["--set", "obs.sigma=1e300"], 2, "obs.sigma"),
    (TRACK + ["--set", "noise.sigma_velocity=nan"], 2, "noise.sigma_velocity"),
    (TRACK + ["--set", "bench.start_stride=0"], 2, "bench.start_stride"),
    (TRACK + ["--set", "bench.learn_steps=-3"], 2, "bench.learn_steps"),
    (TRACK + ["--set", "bench.threshold=nan"], 2, "bench.threshold"),
    (TRACK + ["--set", "bench.track_steps=-1"], 2, "bench.track_steps"),
    (PREDICT + ["--set", "bench.predict_steps=0"], 2, "bench.predict_steps"),
    (PREDICT + ["--set", "bench.predict_steps=-2"], 2, "bench.predict_steps"),
    (TRACK + ["--set", "hpf.pi=nan,nan"], 2, "hpf.pi"),
    (TRACK + ["--set", "hpf.m=0"], 2, "hpf.m"),
    (TRACK + ["--set", "rvo.dt=-1"], 2, "rvo.dt"),
    (TRACK + ["--set", "rvo.dt=inf"], 2, "rvo.dt"),
    (TRACK + ["--set", "rvo.tau=inf"], 2, "rvo.tau"),
    (TRACK + ["--set", "rvo.dt=1e300"], 2, "rvo.dt"),
    (TRACK + ["--set", "rvo.tau=1e300"], 2, "rvo.tau"),
    # The circle simulates at dt / 4, below the range here.
    (["simulate", "--kind", "circle", "--agents", 8, "--steps", 3, "--set", "rvo.dt=2e-6"],
     2, "rvo.dt"),
    (TRACK + ["--set", "body.radius=inf"], 2, "body.radius"),
    (TRACK + ["--set", "body.max_speed=inf"], 2, "body.max_speed"),
    (TRACK + ["--set", "body.max_speed=1e-170"], 2, "body.max_speed"),
    (["predict", "--input", "f.csv", "--set", "body.radius=1e200"], 2, "body.radius"),
    (TRACK + ["--obs-noise", "-0.3"], 2, "obs.noise"),
    (TRACK + ["--obs-noise", "nan"], 2, "obs.noise"),
    (TRACK + ["--obs-noise", "inf"], 2, "obs.noise"),
    (TRACK + ["--obs-noise", "x"], 2, "obs.noise"),
    (TRACK + ["--occlusions", "9:2:2"], 2, "occlusions"),
    (TRACK + ["--k", "x"], 2, "hpf.k"),
    (PREDICT + ["--format", "xml"], 2, "format"),
    (PREDICT + ["--obs-noise", "1e308"], 2, "obs.noise"),
    (PREDICT + ["--set", "bench.prediction_horizons=0"], 2, "bench.prediction_horizons"),
    (PREDICT + ["--set", "bench.prediction_horizons=31"], 2, "bench.prediction_horizons"),
    (PREDICT + ["--set", "bench.prediction_horizons="], 2, "bench.prediction_horizons"),
    (TRACK + ["--set", "bench.tracking_horizons="], 2, "bench.tracking_horizons"),
    (SWEEP + ["--set", "sweep.seeds="], 2, "sweep.seeds"),
    (SWEEP + ["--set", "sweep.grid.rvo.dt=0.2;0.4"], 2, "rvo.dt"),
    (["predict", "--seed", 3], 2, "input"),
    (["predict", "--kind", "crossing", "--agents", 2, "--steps", -1], 2, "steps"),
    (["predict", "--kind", "crossing", "--agents", 2, "--steps", -5], 2, "steps"),
    (["simulate", "--kind", "corridor", "--agents", 0], 2, "agents"),
    (["simulate", "--kind", "corridor", "--agents", "abc"], 2, "agents"),
    (["simulate", "--kind", "circle", "--agents", 8, "--seed", 18], 2, "seed"),
    (["simulate", "--kind", "circle", "--agents", 8, "--seed", 3, "--input", "f.csv"], 2, "input"),
    (["track", "--kind", "corridor", "--agents", 2, "--set", "hpf.m=20", "--steps", 5], 3, "horizon"),
    (["track", "--kind", "corridor", "--agents", 2, "--set", "hpf.m=20", "--steps", 0], 3, "horizon"),
    (["predict", "--input", "dt_abc.csv"], 4, "dt"),
    (["predict", "--input", "dt_zero.csv"], 4, "dt"),
    (["predict", "--input", "dt_inf.csv"], 4, "dt"),
    (["predict", "--input", "dt_tiny.csv"], 4, "dt"),
    (["predict", "--input", "dt_huge.csv"], 4, "dt"),
    (["predict", "--input", "x_overflow.csv"], 4, "dt"),
    (["predict", "--input", "off_grid.txt", "--format", "obsmat"], 4, "frame 17"),
    (["predict", "--input", "far_gap.csv"], 4, "frame 1000000000"),
    (["predict", "--input", "far_gap.txt", "--format", "obsmat"], 4, "frame 1000000000"),
], ids=lambda v: v[-1] if isinstance(v, list) else None)
def test_bad_input_exits_with_code_naming_key(tmp_path, capsys, monkeypatch, argv, code, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.csv").write_text(DT_ROWS)
    (tmp_path / "dt_abc.csv").write_text("# dt = abc\n" + DT_ROWS)
    (tmp_path / "dt_zero.csv").write_text("# dt = 0\n" + DT_ROWS)
    (tmp_path / "dt_inf.csv").write_text("# dt = inf\n" + DT_ROWS)
    (tmp_path / "dt_tiny.csv").write_text("# dt = 1e-320\n" + DT_ROWS)
    (tmp_path / "dt_huge.csv").write_text("# dt = 1e300\n" + DT_ROWS)
    (tmp_path / "x_overflow.csv").write_text("frame,id,x,y\n0,1,1e308,0.0\n1,1,-1e308,0.0\n")
    (tmp_path / "off_grid.txt").write_text("".join(f"{n} 1 0.0 0.0 0.0 0.0 0.0 0.0\n"
                                                   for n in (0, 10, 17, 20, 30)))
    far = (0, 1, 1000000000)
    (tmp_path / "far_gap.csv").write_text("frame,id,x,y\n" + "".join(f"{n},1,0.0,0.0\n" for n in far))
    (tmp_path / "far_gap.txt").write_text("".join(f"{n} 1 0.0 0.0 0.0 0.0 0.0 0.0\n" for n in far))
    assert run(argv + ["--out", tmp_path / "x"]) == code
    assert code == 3 or not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert {2: f"'{key}'", 3: key, 4: f"{key} must"}[code] in err


@pytest.mark.parametrize("frames, message", [
    ("780 786 786 792", "line 3: duplicate (frame, id) = (786, 1)"),
    ("0 inf", "line 2: cannot convert float infinity to integer"),
], ids=["duplicate", "inf_frame"])
def test_bad_obsmat_row_exits_4_naming_line(tmp_path, capsys, frames, message):
    path = tmp_path / "bad.txt"
    path.write_text("".join(f"{n} 1 0.0 0.0 0.0 0.0 0.0 0.0\n" for n in frames.split()))
    assert run(["predict", "--input", path, "--format", "obsmat", "--out", tmp_path / "x"]) == 4
    assert not (tmp_path / "x").exists()
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("default:overflow encountered:RuntimeWarning")  # ROADMAP item 4
@pytest.mark.parametrize("rows", [
    # The squared norm of this error overflows, the error itself does not.
    "0,0,0,0\n0,1,0,0\n1,0,0,0\n2,0,0,1.3407807929942597e+154\n",
], ids=["error_1e154"])
def test_trajectory_file_reports_finite_errors(tmp_path, rows):
    (tmp_path / "in.csv").write_text("frame,id,x,y\n" + rows)
    out = tmp_path / "out"
    assert run(["predict", "--input", tmp_path / "in.csv", "--out", out, "--set", "hpf.m=8",
                "--set", "bench.learn_steps=1", "--set", "bench.start_stride=1",
                "--set", "bench.predict_steps=2", "--set", "bench.prediction_horizons=1,2"]) == 0
    with open(out / "report.csv", encoding="utf-8") as fh:
        cells = [row for row in csv.DictReader(fh) if int(row["n_trials"]) > 0]
    assert cells and all(np.isfinite(float(row["mean_error_m"])) for row in cells)


def test_trajectory_file_sets_the_filters_dt(tmp_path):
    # A file's dt is the run's clock: rvo.dt changes neither the report nor the echoed dt.
    sim = tmp_path / "sim"
    assert run(["simulate", "--kind", "crossing", "--agents", 2, "--seed", 1,
                "--set", "rvo.dt=0.2", "--out", sim]) == 0
    reports = []
    for extra in ([], ["--set", "rvo.dt=0.2"]):
        out = tmp_path / f"predict{len(extra)}"
        assert run(["predict", "--input", sim / "trajectories.csv", "--model", "rvo+",
                    "--filter", "pf", "--set", "hpf.m=60", *extra, "--out", out]) == 0
        assert "rvo.dt = 0.2" in (out / "config.echo").read_text().splitlines()
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_main_keeps_freed_heap_once_per_process(monkeypatch):
    """Both mallopt calls succeed on glibc and run once; without mallopt, nothing runs."""
    result = cli._keep_freed_heap()
    assert cli._keep_freed_heap() is result
    if platform.libc_ver()[0] == "glibc":
        assert result == (1, 1)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_heap.__wrapped__() is None


SETTING_KEYS = sorted(RUN_KEYS) + sorted(PROTOCOL_KEYS) + [GRID_PREFIX + k for k in sorted(PROTOCOL_KEYS)]


@settings(max_examples=3000)
@given(key=st.sampled_from(SETTING_KEYS),
       value=st.text() | st.floats().map(repr) | st.integers().map(str))
def test_any_setting_is_applied_or_rejected_as_config_error(key, value):
    try:
        cfg = apply_setting(RunConfig(), key, value)
        configure(ProtocolConfig(), cfg.settings)
    except ConfigError:
        pass


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "head_on", "--agents", 2, "--seed", 7],
    PREDICT + ["--obs-noise", 0.1],
    TRACK + ["--occlusions", "0:5:2"],
    TestSweep.LIN_SWEEP + ["--set", "sweep.grid.noise.sigma_velocity=0.2;0.0"],
], ids=lambda argv: argv[0])
def test_config_echo_reproduces_run(tmp_path, argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(argv + ["--out", first]) == 0
    assert run([argv[0], "--config", first / "config.echo", "--out", second]) == 0

    def echo(out):
        return [line for line in (out / "config.echo").read_text().splitlines()
                if not line.startswith("out = ")]

    assert echo(first) == echo(second)
    outputs = [name for name in ("report.csv", "trajectories.csv") if (first / name).exists()]
    assert outputs
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()


# Mostly ordinary coordinates, one draw in eight an extreme or malformed field.
CSV_NUMBER = st.integers(0, 7).flatmap(lambda k: st.floats(-10.0, 10.0).map(repr) if k else (
    st.floats().map(repr) | st.sampled_from(["1e308", "-1e308", "1e200", "-1e200", "1e-320",
                                             "5e-324", "-0.0", "inf", "nan", "", "x", "1_0"])))


@st.composite
def trajectory_text(draw):
    """csv-fixy text: an optional dt line, a header, frames of id rows, trailing junk."""
    lines = []
    dt = draw(st.none() | st.floats(0.05, 1.0).map(repr) | CSV_NUMBER)
    if dt is not None:
        lines.append(f"# dt = {dt}")
    lines.append(draw(st.sampled_from(["frame,id,x,y"] * 7 + ["frame,id"])))
    frames = draw(st.lists(st.integers(-1, 10), unique=True, max_size=8))
    for frame in sorted(frames) if draw(st.integers(0, 7)) else frames:
        for agent_id in draw(st.lists(st.integers(0, 2), unique=True, min_size=1, max_size=3)):
            lines.append(f"{frame},{agent_id},{draw(CSV_NUMBER)},{draw(CSV_NUMBER)}")
    if not draw(st.integers(0, 3)):
        lines.append(draw(st.text(max_size=8)))
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("default:overflow encountered:RuntimeWarning")  # ROADMAP item 4
@settings(max_examples=150)
@given(text=trajectory_text(), obs_noise=st.sampled_from([0.0, 0.1]))
# A finite jump of 1e200 m: the filters' means overflow, which must exit 4.
@example(text="frame,id,x,y\n0,0,0.0,0.0\n0,1,0.0,1.0\n0,2,0.0,0.0\n1,2,0.0,0.0\n"
              "1,0,0.0,2.0\n1,1,1e200,0.0\n2,0,0.0,0.0\n", obs_noise=0.0)
def test_any_trajectory_file_predicts_or_exits_cleanly(text, obs_noise):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        code = run(["predict", "--input", path, "--out", out, "--obs-noise", obs_noise,
                    "--set", "hpf.m=8", "--set", "bench.learn_steps=1",
                    "--set", "bench.start_stride=1", "--set", "bench.predict_steps=2",
                    "--set", "bench.prediction_horizons=1,2"])
        assert code in (0, 3, 4)
        if code == 0:
            with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if np.isnan(float(row["mean_error_m"])):
                        assert int(row["n_trials"]) == 0, row
