"""``trajectory_digest``, the bit-identity check of a training trajectory:
same-seed runs give equal digests, and the digests see a different run."""

from trajectory_digest import main, trajectory_digests

STEPS = 5


def test_same_seed_runs_give_equal_digests():
    first = trajectory_digests("tiny", STEPS)
    assert set(first) == {"params", "log_alpha", "metrics", "evaluate"}
    assert trajectory_digests("tiny", STEPS) == first
    other = trajectory_digests("tiny", STEPS, seed=1)
    assert other["params"] != first["params"]
    assert other["metrics"] != first["metrics"]


def test_script_prints_one_digest_per_line(capsys):
    assert main(["tiny", "2", "--episodes", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["params", "log_alpha", "metrics",
                                                   "evaluate"]
    assert all(len(line.split()[1]) == 64 for line in lines)
