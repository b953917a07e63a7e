"""The code-line counter of ``code_lines.py``: a line counts when it holds
a token outside comments and docstrings."""

import code_lines

SOURCE = '''"""A module docstring
over two lines."""

# a comment line


def f(x):
    """A function docstring."""
    total = (x  # a trailing comment
             + 1
    )
    return total, """a string that is
not a docstring"""


class C:
    """A class docstring."""

    n = 1
'''


def test_the_counter_skips_comments_docstrings_and_blank_lines():
    # def f, total =, + 1, ), return, the string's second line, class C, n = 1
    assert code_lines.code_lines(SOURCE) == 8


def test_a_docstring_alone_is_no_code():
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines('"""Not alone."""\nx = 1\n') == 1


def test_every_library_module_is_counted():
    counts = code_lines.library_counts()
    assert {"fields", "groupoids", "series", "semidirect"} <= set(counts)
    assert all(n > 0 for name, n in counts.items() if name != "__init__")
