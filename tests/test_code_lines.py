"""``code_lines``, the package's line counts: what it leaves out of the code
lines, and the script's output."""

from code_lines import count, main

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts


def f(x):
    """Docstring."""
    # a comment line does not
    text = """a multi-line
    string that is no docstring"""
    return os.path.join(x, text)
'''


def test_counts_skip_docstrings_comments_and_blanks():
    assert count(SOURCE) == (12, 5)
    assert count("") == (0, 0)


def test_script_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["a.py 12 5", "sub/b.py 2 1", "total 14 6"]


def test_two_directories_print_before_and_after(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
    (old / "a.py").write_text(SOURCE)
    (old / "gone.py").write_text("x = 1\n")
    (new / "a.py").write_text(SOURCE + "y = 2\n")
    (new / "added.py").write_text("# a comment\nz = 3\n")
    assert main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["a.py 12 5 -> 13 6", "added.py 0 0 -> 2 1", "gone.py 1 1 -> 0 0",
                     "total 13 6 -> 15 7"]


def test_default_is_the_package(capsys):
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sac.py" in [line.split()[0] for line in lines]
    total = lines[-1].split()
    assert total[0] == "total" and 0 < int(total[2]) < int(total[1])
