from pathlib import Path

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
