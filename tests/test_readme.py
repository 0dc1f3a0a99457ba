import argparse
import re
from itertools import takewhile
from pathlib import Path

from liemd import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The python block under README's "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_gives_its_commented_results():
    block = quick_start()
    claims = {code.strip(): comment.strip()
              for code, _, comment in (line.partition("  #") for line in block.splitlines())
              if code.strip() and comment}
    assert claims == {
        "orbit_dim(g, [0, 0, 0, 0, 1])": "-> 4",
        "verdict = md_check(g)": "IsMD, max orbit dimension 4",
        "verdict.proof": "'common-factor'",
        "md_check(h).max_dim": "-> 2",
    }
    scope = {}
    exec(block, scope)
    assert eval("orbit_dim(g, [0, 0, 0, 0, 1])", scope) == 4
    assert (scope["verdict"].kind, scope["verdict"].max_dim) == ("IsMD", 4)
    assert eval("verdict.proof", scope) == "common-factor"
    assert eval("md_check(h).max_dim", scope) == 2


def cli_usage_lines():
    """(command words, option flags) of each ``liemd ...`` line in the code
    block under README's "CLI" heading."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        if not line.startswith("liemd "):
            continue
        words = line.split()[1:]
        command = tuple(takewhile(re.compile(r"[a-z][a-z-]*").fullmatch, words))
        yield command, [w.strip("[]") for w in words if w.strip("[]").startswith("-")]


def leaf_parsers(parser, command=()):
    """(command words, parser) for each command of ``parser`` with no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield command, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from leaf_parsers(child, command + (name,))


def test_readme_cli_lines_list_each_commands_options():
    leaves = dict(leaf_parsers(cli.build_parser()))
    lines = dict(cli_usage_lines())
    assert sorted(lines) == sorted(leaves)
    for command, flags in lines.items():
        options = [a for a in leaves[command]._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        # every option once, by any of its spellings, and nothing else
        named = [next((a.option_strings[-1] for a in options if flag in a.option_strings), flag)
                 for flag in flags]
        assert sorted(named) == sorted(a.option_strings[-1] for a in options), command
