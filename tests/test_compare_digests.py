"""``compare_digests``, the two-checkout trajectory comparison, on stub
checkouts whose digest tools print fixed lines."""

from compare_digests import main

STUB = '''import os, sys
assert sys.argv[1:] == ["all", "{steps}"], sys.argv
threads = os.environ["OPENBLAS_NUM_THREADS"]
print("train-accept aaa")
print("tiny resrouting=off routing_fn=topk bbb")
{extra}
'''


def _checkout(path, extra="", steps=200):
    (path / "tests").mkdir(parents=True)
    (path / "tests" / "trajectory_digest.py").write_text(
        STUB.format(steps=steps, extra=extra))
    return str(path)


def test_equal_checkouts_exit_0(tmp_path, capsys):
    old, new = _checkout(tmp_path / "old", steps=7), _checkout(tmp_path / "new", steps=7)
    assert main([old, new, "7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "threads=1 2 of 2 labels equal", "threads=2 2 of 2 labels equal"]


def test_differing_and_one_sided_labels_are_printed(tmp_path, capsys):
    old = _checkout(tmp_path / "old", extra='print("tiny gone ccc")')
    # NEW's last line differs at 2 BLAS threads only, and it has a label OLD lacks
    new = _checkout(tmp_path / "new", extra='print("tiny gone ccc" + threads * (threads == "2"))'
                                          '\nprint("tiny added ddd")')
    assert main([old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "threads=1 only in NEW: tiny added",
        "threads=1 3 of 4 labels equal",
        "threads=2 differs: tiny gone",
        "threads=2 only in NEW: tiny added",
        "threads=2 2 of 4 labels equal"]
