import hashlib

import numpy as np
import pytest

from crowdtrack import (BodySpec, corrupt, make_scenario, parse_trajectories,
                        write_trajectories)
from crowdtrack.data import (MAX_EMPTY_FRAMES, EmptyFile, MalformedRow, NonMonotoneFrames,
                             OverlappingScenario, min_pairwise_separation,
                             simulate_goal_driven)


def positions_digest(cases):
    """SHA-256 of make_scenario positions for (kind, agents, body, seeds) cases."""
    digest = hashlib.sha256()
    for kind, n, body, seeds in cases:
        for seed in seeds:
            s = make_scenario(kind, n, seed, body=body)
            digest.update(np.array([[pos for _, pos in f.entries] for f in s.frames]).tobytes())
    return digest.hexdigest()


class TestParseCsvFixy:
    def test_three_row_hand_written_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("frame,id,x,y\n0,1,1.5,2.5\n0,2,-1.0,0.0\n1,1,1.9,2.5\n")
        s = parse_trajectories(path)
        assert s.n_frames == 2
        assert s.agent_ids == [1, 2]
        assert np.allclose(dict(s.frames[0].entries)[1], [1.5, 2.5])
        assert np.allclose(dict(s.frames[0].entries)[2], [-1.0, 0.0])
        assert np.allclose(dict(s.frames[1].entries)[1], [1.9, 2.5])
        assert s.dt == 0.4

    def test_duplicate_frame_id_names_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("frame,id,x,y\n0,1,1.0,2.0\n0,1,1.1,2.0\n")
        with pytest.raises(MalformedRow) as err:
            parse_trajectories(path)
        assert err.value.line_number == 3

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,id,x,y\n0,1,1.0\n")
        with pytest.raises(MalformedRow) as err:
            parse_trajectories(path)
        assert err.value.line_number == 2

    def test_non_monotone_frames(self, tmp_path):
        path = tmp_path / "mono.csv"
        path.write_text("frame,id,x,y\n5,1,0.0,0.0\n3,1,0.1,0.0\n")
        with pytest.raises(NonMonotoneFrames):
            parse_trajectories(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frame,id,x,y\n")
        with pytest.raises(EmptyFile):
            parse_trajectories(path)

    def test_missing_frame_numbers_are_frames_with_no_agent(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("frame,id,x,y\n0,1,0.0,0.0\n1,1,0.4,0.0\n5,1,2.0,0.0\n")
        s = parse_trajectories(path)
        assert [f.time_index for f in s.frames] == [0, 1, 2, 3, 4, 5]
        assert [f.entries for f in s.frames[2:5]] == [[], [], []]
        assert [k for k, f in enumerate(s.frames) if 1 in f.ids] == [0, 1, 5]

    def test_a_gap_holds_at_most_max_empty_frames(self, tmp_path):
        # The bound keeps the grid within a fixed number of frames per row read.
        path = tmp_path / "gap.csv"
        last = MAX_EMPTY_FRAMES + 2
        path.write_text(f"frame,id,x,y\n0,1,0.0,0.0\n1,1,0.4,0.0\n{last},1,2.0,0.0\n")
        assert parse_trajectories(path).n_frames == last + 1
        path.write_text(f"frame,id,x,y\n0,1,0.0,0.0\n1,1,0.4,0.0\n{last + 1},1,2.0,0.0\n")
        with pytest.raises(ValueError, match=f"frame {last + 1} must follow frame 1 "
                                             f"with at most {MAX_EMPTY_FRAMES} empty"):
            parse_trajectories(path)

    def test_round_trip_is_identity(self, tmp_path):
        s = make_scenario("crossing", 4, seed=3, steps=20, dt=0.25)
        path = tmp_path / "rt.csv"
        write_trajectories(s, path)
        back = parse_trajectories(path)
        assert back.dt == s.dt
        assert back.name == s.name
        assert back.meta == s.meta
        assert back.n_frames == s.n_frames
        for f1, f2 in zip(s.frames, back.frames):
            assert f1.time_index == f2.time_index
            assert [i for i, _ in f1.entries] == [i for i, _ in f2.entries]
            for (_, p1), (_, p2) in zip(f1.entries, f2.entries):
                assert np.array_equal(p1, p2)

    def test_written_bytes_are_stable(self, tmp_path):
        s = make_scenario("head_on", 2, seed=1, steps=10)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectories(s, p1)
        write_trajectories(s, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestParseObsmat:
    def test_eth_layout_takes_x_and_y(self, tmp_path):
        path = tmp_path / "obsmat.txt"
        rows = [
            "840 1 10.0 0.0 5.0 1.0 0.0 0.0",
            "840 2 -3.5 0.0 2.25 0.0 0.0 1.0",
            "846 1 10.4 0.0 5.0 1.0 0.0 0.0",
        ]
        path.write_text("\n".join(rows) + "\n")
        s = parse_trajectories(path, fmt="obsmat")
        assert s.n_frames == 2
        assert np.allclose(dict(s.frames[0].entries)[1], [10.0, 5.0])
        assert np.allclose(dict(s.frames[0].entries)[2], [-3.5, 2.25])
        assert s.frames[0].time_index == 0 and s.frames[1].time_index == 1

    def test_frames_lie_on_the_most_frequent_step(self, tmp_path):
        path = tmp_path / "grid.txt"
        rows = [f"{n} 1 {0.1 * (n - 840)!r} 0.0 0.0 0.0 0.0 0.0"
                for n in (840, 846, 852, 858, 870)]
        path.write_text("\n".join(rows) + "\n")
        s = parse_trajectories(path, fmt="obsmat")
        assert s.dt == 0.4
        assert [f.time_index for f in s.frames] == [0, 1, 2, 3, 4, 5]
        assert s.frames[4].entries == []
        # One stray number leaves the step at 6 and is rejected, naming its frame.
        path.write_text("\n".join(rows + ["847 2 0.0 0.0 1.0 0.0 0.0 0.0"]) + "\n")
        with pytest.raises(ValueError, match="frame 847 must lie on the grid of step 6"):
            parse_trajectories(path, fmt="obsmat")

    def test_duplicate_frame_id_names_line(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("".join(f"{n} 1 0.0 0.0 0.0 0.0 0.0 0.0\n" for n in (780, 786, 786, 792)))
        with pytest.raises(MalformedRow, match=r"duplicate \(frame, id\) = \(786, 1\)") as err:
            parse_trajectories(path, fmt="obsmat")
        assert err.value.line_number == 3

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("840 1 10.0 0.0 5.0\n")
        with pytest.raises(MalformedRow):
            parse_trajectories(path, fmt="obsmat")


@pytest.mark.parametrize("fmt, header, row", [
    ("csv-fixy", "frame,id,x,y", "{frame},1,{x},{y}"),
    ("obsmat", "# frame id x z y vx vz vy", "{frame} 1 {x} 0.0 {y} 0.0 0.0 0.0"),
], ids=["csv-fixy", "obsmat"])
@pytest.mark.parametrize("frame, x, y, message", [
    (1, "nan", 0.5, "non-finite position"),
    (1, 0.5, "inf", "non-finite position"),
    (0, 0.5, 0.5, r"duplicate \(frame, id\) = \(0, 1\)"),
], ids=["nan_x", "inf_y", "duplicate"])
def test_bad_row_is_malformed_at_its_line(tmp_path, fmt, header, row, frame, x, y, message):
    lines = [header, row.format(frame=0, x=0.0, y=0.0), row.format(frame=frame, x=x, y=y),
             row.format(frame=2, x=1.0, y=1.0)]
    path = tmp_path / "rows.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow, match=message) as err:
        parse_trajectories(path, fmt=fmt)
    assert err.value.line_number == 3


class TestMakeScenario:
    def test_same_seed_identical(self):
        a = make_scenario("circle", 6, seed=9, steps=30)
        b = make_scenario("circle", 6, seed=9, steps=30)
        for f1, f2 in zip(a.frames, b.frames):
            for (_, p1), (_, p2) in zip(f1.entries, f2.entries):
                assert np.array_equal(p1, p2)

    def test_head_on_pair_mirror_and_separated(self):
        s = make_scenario("head_on", 2, seed=0)
        for frame in s.frames:
            positions = dict(frame.entries)
            assert np.allclose(positions[0], -positions[1], atol=1e-9)
        assert min_pairwise_separation(s) >= 0.4 - 1e-9

    def test_circle_agents_reach_antipodal_goals(self):
        s = make_scenario("circle", 8, seed=2)
        last = s.frames[-1]
        for agent_id in range(8):
            goal = s.goal_of(agent_id)
            assert np.linalg.norm(dict(last.entries)[agent_id] - goal) < 0.2

    def test_all_kinds_collision_free(self):
        for kind, n in (("head_on", 4), ("crossing", 4), ("circle", 8), ("corridor", 3)):
            s = make_scenario(kind, n, seed=5)
            assert min_pairwise_separation(s) >= 0.4 - 1e-6, kind

    @pytest.mark.parametrize("seed", [18, 106, 12005])
    def test_overlapping_seeds_rejected(self, seed):
        # The least-violation fallback lets two circle agents overlap by up
        # to 0.8 mm on these seeds.
        with pytest.raises(OverlappingScenario, match=f"seed {seed}:"):
            make_scenario("circle", 8, seed=seed)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scenario("vortex", 3, seed=0)

    # SHA-256 of the positions below.  A refactor of the generator's numeric
    # path must reproduce every scenario bit for bit, not just closely.
    SCENARIO_PIN = "aba5d3691e2bc93fe4fa4d65ba3e9b01017a1e4e1fd0a8da8d6ba19cfdfec6f6"

    def test_positions_are_bitwise_pinned(self):
        assert positions_digest((("head_on", 4, BodySpec(), (0, 1)),
                                 ("crossing", 2, BodySpec(radius=0.3), (0, 1)),
                                 ("circle", 8, BodySpec(), (0, 1)),
                                 ("corridor", 3, BodySpec(), (0, 1)))) == self.SCENARIO_PIN

    # The benchmark's scenarios: the first three track-corridor and
    # predict-crossing rounds, and the README circle.
    BENCHMARK_PIN = "78c4f27a24d4e275f5452ab1f16aecb468ad27d071209ca3a3545c5b01eccd42"

    def test_benchmark_scenarios_are_bitwise_pinned(self):
        assert positions_digest((("corridor", 3, BodySpec(), (0, 1, 2)),
                                 ("crossing", 2, BodySpec(0.3, 2.5), (0, 1, 2)),
                                 ("circle", 8, BodySpec(), (3,)))) == self.BENCHMARK_PIN

    def test_goals_are_checked(self):
        with pytest.raises(ValueError):
            simulate_goal_driven([[0.0, 0.0]], [[np.nan, 1.0]], steps=2, dt=0.4)
        with pytest.raises(ValueError):
            simulate_goal_driven([[0.0, 0.0]], [], steps=2, dt=0.4)


class TestCorrupt:
    def test_clean_trace_echoes_positions(self):
        s = make_scenario("head_on", 2, seed=0, steps=10)
        trace = corrupt(s, 0.0, (), seed=1)
        for k, frame in enumerate(s.frames):
            for agent_id, pos in frame.entries:
                assert np.array_equal(trace[k][agent_id], pos)

    def test_occlusion_bookkeeping(self):
        s = make_scenario("head_on", 2, seed=0, steps=20)
        trace = corrupt(s, 0.0, [(1, 10, 3)], seed=1)
        absent = [k for k in range(s.n_frames) if trace[k][1] is None]
        assert absent == [10, 11, 12]
        for k in absent:
            assert trace[k][0] is not None

    def test_noise_moments(self):
        s = make_scenario("corridor", 5, seed=3, steps=2000)
        trace = corrupt(s, 0.1, (), seed=4)
        deltas = []
        for k, frame in enumerate(s.frames):
            for agent_id, pos in frame.entries:
                deltas.append(trace[k][agent_id] - pos)
        deltas = np.array(deltas)
        assert deltas.shape[0] >= 10000
        assert abs(deltas.std() - 0.1) < 0.002

    def test_window_outside_span_rejected(self):
        s = make_scenario("head_on", 2, seed=0, steps=10)
        with pytest.raises(ValueError):
            corrupt(s, 0.0, [(1, 8, 10)], seed=0)

    def test_deterministic_per_seed(self):
        s = make_scenario("head_on", 2, seed=0, steps=10)
        t1 = corrupt(s, 0.2, [(0, 2, 2)], seed=9)
        t2 = corrupt(s, 0.2, [(0, 2, 2)], seed=9)
        for k in range(s.n_frames):
            for agent_id in (0, 1):
                a, b = t1[k][agent_id], t2[k][agent_id]
                if a is None:
                    assert b is None
                else:
                    assert np.array_equal(a, b)
