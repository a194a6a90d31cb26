"""Project-model unit tests: module naming, import graph, closures."""

import os
import textwrap

from repro.analysis.checkers import AnalyzeConfig, analyze_paths
from repro.analysis.project import (ProjectConfig, build_project,
                                    module_name_for, summarize_source)


def write_pkg(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


_TREE = {
    "pkg/__init__.py": "",
    "pkg/a.py": "VALUE = 1\n",
    "pkg/b.py": "from .a import VALUE\n",
    "pkg/sub/__init__.py": "",
    "pkg/sub/c.py": "from ..b import VALUE\nimport os\n",
    "pkg/d.py": "X = 2\n",
}


def test_module_name_walks_init_chain(tmp_path):
    write_pkg(tmp_path, _TREE)
    name, is_pkg = module_name_for(str(tmp_path / "pkg" / "sub" / "c.py"))
    assert (name, is_pkg) == ("pkg.sub.c", False)
    name, is_pkg = module_name_for(str(tmp_path / "pkg" / "__init__.py"))
    assert (name, is_pkg) == ("pkg", True)


def test_import_graph_and_reverse_closure(tmp_path):
    root = write_pkg(tmp_path, _TREE)
    project, stats = build_project([str(root)])
    assert stats.errors == []
    assert set(project.modules) == {
        "pkg", "pkg.a", "pkg.b", "pkg.sub", "pkg.sub.c", "pkg.d"}
    assert project.imports["pkg.b"] == {"pkg.a"}
    # stdlib edges (os) are dropped; only analyzed modules appear.
    assert project.imports["pkg.sub.c"] == {"pkg.b"}
    assert project.reachable_from(["pkg.sub.c"]) == {
        "pkg.sub.c", "pkg.b", "pkg.a"}


def test_same_stem_modules_are_both_analyzed(tmp_path):
    # Two non-package files share the module name `helper`.
    clock = """\
        import time


        class M:
            def tick(self):
                self.t0 = time.time()
        """
    root = write_pkg(tmp_path, {"a/helper.py": clock, "b/helper.py": clock})
    findings, stats = analyze_paths([str(root / "a"), str(root / "b")],
                                    AnalyzeConfig(select=("RL101",)))
    assert stats.modules == 2
    assert sorted(os.path.basename(os.path.dirname(v.path))
                  for v in findings) == ["a", "b"]


def test_parse_error_is_reported_not_fatal(tmp_path):
    root = write_pkg(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/ok.py": "X = 1\n",
        "pkg/broken.py": "def f(:\n",
    })
    project, stats = build_project([str(root)])
    assert "pkg.ok" in project.modules
    assert "pkg.broken" not in project.modules
    assert len(stats.errors) == 1
    assert "parse error" in stats.errors[0][1]


def test_event_schema_extraction(tmp_path):
    summary = summarize_source(textwrap.dedent("""\
        EVENT_SCHEMAS = {
            "a.b": ("x", "y"),
            "c.d": (),
        }
        """), str(tmp_path / "trace.py"), ProjectConfig())
    assert summary.facts["event_schemas"] == {"a.b": ["x", "y"], "c.d": []}
    assert summary.facts["event_schema_lines"]["a.b"] == 2


def test_emit_site_extraction(tmp_path):
    summary = summarize_source(textwrap.dedent("""\
        def go(bus, kw):
            bus.emit("a.b", x=1, y=2)
            bus.emit("c.d", **kw)
            bus.emit(kw["type"])
        """), str(tmp_path / "m.py"), ProjectConfig())
    emits = summary.facts["emits"]
    assert [e["type"] for e in emits] == ["a.b", "c.d", None]
    assert emits[0]["fields"] == ["x", "y"]
    assert emits[0]["has_star"] is False
    assert emits[1]["has_star"] is True
