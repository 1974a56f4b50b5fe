"""``trajectory_digest``, the bit-identity check of a training trajectory:
same-seed runs give equal digests, and the digests see a different run."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from trajectory_digest import all_runs, main, trajectory_digests

STEPS = 5


def test_same_seed_runs_give_equal_digests():
    first = trajectory_digests("tiny", STEPS)
    assert set(first) == {"params", "log_alpha", "metrics", "evaluate",
                          "replay"}
    assert trajectory_digests("tiny", STEPS) == first
    other = trajectory_digests("tiny", STEPS, seed=1)
    assert other["params"] != first["params"]
    assert other["metrics"] != first["metrics"]
    assert other["replay"] != first["replay"]


def test_script_prints_one_digest_per_line(capsys):
    assert main(["tiny", "2", "--episodes", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["params", "log_alpha", "metrics",
                                                   "evaluate", "replay"]
    assert all(len(line.split()[1]) == 64 for line in lines)


def test_overrides_reach_the_run_config():
    base = trajectory_digests("tiny", STEPS)
    hard = trajectory_digests("tiny", STEPS, overrides={"k": 1})
    assert hard["params"] != base["params"]
    assert trajectory_digests("tiny", STEPS, overrides={"routing_fn": "samplek"}) == base
    # a string field keeps the text YAML would read as a boolean
    assert main(["tiny", "1", "resrouting=off", "loss_rescaling=false",
                 "--episodes", "0"]) == 0


def test_all_prints_one_labelled_line_per_run(capsys):
    assert main(["all", "1", "--episodes", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.rsplit(" ", 1)[0] for line in lines]
    assert labels[:2] == ["train-accept", "train-default"]
    assert len(labels) == len(set(labels)) == 12
    assert labels[-2:] == ["tiny route_balancing=false", "tiny loss_rescaling=false"]
    # each line digests the lines its configuration prints alone
    for label in ("tiny resrouting=off routing_fn=topk", "tiny route_balancing=false",
                  "tiny loss_rescaling=false"):
        config, *overrides = label.split()
        assert main([config, "1", *overrides, "--episodes", "0"]) == 0
        alone = capsys.readouterr().out
        line = lines[labels.index(label)]
        assert line.split()[-1] == hashlib.sha256(alone.encode()).hexdigest()


def test_every_tiny_run_trains_differently():
    # a setting whose run trains the same bits as another's is a second
    # spelling of it, or a knob that nothing reads. 200 steps: at 50, rsg,
    # sg-only and off still train alike under either routing_fn
    tiny = [(label, overrides) for label, config, overrides in all_runs()
            if config == "tiny"]
    assert len(tiny) == 10
    params = {label: trajectory_digests("tiny", 200, overrides=overrides)["params"]
              for label, overrides in tiny}
    assert len(set(params.values())) == len(tiny), params


def _outputs_under_one_and_two_blas_threads(config: str, steps: str) -> list[str]:
    script = Path(__file__).with_name("trajectory_digest.py")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        outputs.append(subprocess.run(
            [sys.executable, str(script), config, steps], env=env,
            capture_output=True, text=True, check=True, timeout=300).stdout)
    return outputs


def test_digests_do_not_depend_on_the_blas_thread_count():
    # the same seed gives the same bits whether OpenBLAS runs on one thread
    # or two
    outputs = _outputs_under_one_and_two_blas_threads("train-default", "20")
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]


def test_tiny_digests_do_not_depend_on_the_blas_thread_count():
    # the tiny config's sums (bias and task-embedding gradients, probability
    # adjoints) are BLAS products too: one thread or two, the same bits
    outputs = _outputs_under_one_and_two_blas_threads("tiny", "5")
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]
