"""The README's examples run and print what the README says they do."""

import ast
import io
import shlex
import tokenize
from pathlib import Path

import pytest

from pelleis import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _block(heading: str, fence: str) -> str:
    """The first fenced block of the given language after the heading."""
    section = README[README.index(heading):]
    start = section.index(f"```{fence}\n") + len(fence) + 4
    return section[start:section.index("```", start)]


def _claim(comment: str) -> str | None:
    """The value a comment claims: its text up to two spaces, without a
    closing colon, when that reads as a Python expression; prose is None."""
    head = comment.split("  ")[0].rstrip(":")
    try:
        ast.parse(head, mode="eval")
    except SyntaxError:
        return None
    return head


def test_quick_tour_values_match_their_comments():
    source = _block("## Library quick tour", "python")
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            # A trailing comment states the value of the expression.
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                         namespace)
            comment = comments.get(stmt.end_lineno)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            # A comment line under an unpacking states the names' values.
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) else None
            if not isinstance(target, ast.Tuple):
                continue
            value = tuple(namespace[name.id] for name in target.elts)
            comment = comments.get(stmt.end_lineno + 1)
        claim = _claim(comment) if comment else None
        if claim is None:
            continue
        assert claim in (repr(value), str(value), repr(value)[1:-1]), (
            ast.get_source_segment(source, stmt), value)
        checked.append(claim)
    assert len(checked) == 9, checked


def _cli_examples():
    """(argv, the lines shown) for each `$ pelleis ...` example."""
    examples = []
    for block in README.split("```sh\n")[1:]:
        lines = block[:block.index("```")].splitlines()
        if lines and lines[0].startswith("$ pelleis "):
            examples.append((shlex.split(lines[0])[2:], lines[1:]))
    return examples


def test_every_subcommand_has_an_example():
    assert [argv[0] for argv, _ in _cli_examples()] == [
        "seq", "eval", "grid", "poles", "verify", "prove"]


@pytest.mark.parametrize("argv, shown", [
    pytest.param(argv, shown, id=argv[0]) for argv, shown in _cli_examples()])
def test_cli_example_matches_run(capsys, argv, shown):
    # Lines up to a "..." line are the first lines the command prints.
    if "..." in shown:
        shown = shown[:shown.index("...")]
    assert shown
    cli.run(argv)
    assert capsys.readouterr().out.splitlines()[:len(shown)] == shown
