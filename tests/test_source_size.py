"""Tests for ``tools/source_size.py``, the counter behind the tracked source size."""

import importlib
import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("source_size", ROOT / "tools" / "source_size.py")
source_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_size)


def count(source: str) -> int:
    return source_size.code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert count('''\
        """Module docstring,
        on two lines."""

        # a comment line


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                # another comment
                return 1  # a trailing comment keeps its line
        ''') == 3  # class A, def f, return 1


def test_a_string_that_is_not_first_in_a_body_is_code():
    assert count('''\
        x = 1
        """Not a docstring: the module body starts with x."""
        ''') == 2


def test_a_statement_over_three_lines_counts_three_code_lines():
    assert count('''\
        total = (1 +
                 2 +
                 3)
        ''') == 3


def test_public_names_reads_all():
    assert source_size.public_names('__all__ = ["b", "a"]\n_private = 1\nc = 2\n') == {"a", "b"}
    assert source_size.public_names("c = 2\n") == set()


def test_the_tree_counts_sum_over_the_package(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    paths = sorted((ROOT / "src" / "cuspzeta").glob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    assert source_size.main(["source_size.py"]) == 0
    lines, code, names = map(int, capsys.readouterr().out.split())
    assert lines == sum(text.count("\n") for text in texts)
    assert code == sum(map(source_size.code_lines, texts))
    modules = [importlib.import_module(f"cuspzeta.{path.stem}")
               for path in paths if path.stem != "__init__"]
    assert names == len(set().union(*(getattr(module, "__all__", ()) for module in modules)))
    assert 0 < code < lines
