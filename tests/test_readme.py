"""README's library quick tour runs and does what its comments say."""

import re
from pathlib import Path

import funnelkit as fk

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_as_its_comments_say():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    env: dict = {}
    exec(compile(block, "README quick tour", "exec"), env)
    dag, w, opt, rest, noisy = (env[name] for name in ("dag", "w", "opt", "rest", "noisy"))
    assert fk.is_funnel_degree(dag) is False
    assert fk.find_forbidden_witness(dag) == w
    assert sorted(w.arcs()) and w.arcs() <= dag.arc_set
    assert env["res"].size <= 2 * opt.distance
    assert opt.distance == 1
    assert fk.is_funnel_degree(rest) is True
    assert fk.verify_funnel_labeling(rest, opt.labeling) is True
    assert fk.solve_addf(noisy).distance <= 10
