"""Tests for repro-lint (tools/analyze): every rule, suppressions, baseline.

Each rule gets at least one fixture with a true positive and one clean
negative, written so deleting the rule's implementation makes the test fail.
Fixtures are written to tmp_path and analyzed with ``--no-baseline``
semantics (``baseline_path=None``); the mechanics tests then exercise the
suppression-reason requirement and the shrink-only baseline, and the
acceptance test runs the analyzer over the real repository.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.analyze.core import all_rules, run_analysis, write_baseline  # after the sys.path insert above


def lint(tmp_path: Path, sources: dict, **kwargs):
    """Write ``sources`` under ``tmp_path`` and analyze them."""
    for name, text in sources.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    kwargs.setdefault("baseline_path", None)
    return run_analysis([tmp_path], root=tmp_path, **kwargs)


def rules_of(report):
    return [finding.rule for finding in report.findings]


# ---------------------------------------------------------------------------
# rule: spawn-safety
# ---------------------------------------------------------------------------

class TestSpawnSafety:
    def test_lambda_and_nested_def_are_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                def run(items):
                    square = lambda x: x * x
                    first = parallel_map(square, items)
                    second = parallel_map(lambda x: x + 1, items)

                    def inner(x):
                        return x

                    third = evaluate_ordered(objective=inner, encodings=items)
                    return first, second, third
                """
            },
        )
        spawn = [f for f in report.findings if f.rule == "spawn-safety"]
        assert len(spawn) == 3
        assert any("lambda" in f.message for f in spawn)
        assert any("nested def 'inner'" in f.message for f in spawn)

    def test_module_level_function_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                def work(x):
                    return x * x

                def run(items):
                    return parallel_map(work, items)
                """
            },
        )
        assert "spawn-safety" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: lock-discipline
# ---------------------------------------------------------------------------

class TestLockDiscipline:
    FIXTURE_BAD = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1

        def peek(self):
            return self.count

        def reset(self):
            self.count = 0

        def bad_bump(self):
            self.count += 1
    """

    def test_bare_read_write_and_augassign_are_flagged(self, tmp_path):
        report = lint(tmp_path, {"bad.py": self.FIXTURE_BAD})
        lock = [f for f in report.findings if f.rule == "lock-discipline"]
        messages = " | ".join(f.message for f in lock)
        assert "read here without the lock" in messages
        assert "written here without the lock" in messages
        assert "augmented assignment is not atomic" in messages

    def test_fully_locked_class_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1

                    def peek(self):
                        with self._lock:
                            return self.count
                """
            },
        )
        assert "lock-discipline" not in rules_of(report)

    def test_lockless_class_is_out_of_scope(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "single.py": """
                class Accumulator:
                    def __init__(self):
                        self.total = 0

                    def add(self, value):
                        self.total += value
                """
            },
        )
        assert "lock-discipline" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: buffer-escape
# ---------------------------------------------------------------------------

class TestBufferEscape:
    def test_returning_pooled_buffer_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                def compute(pool, shape):
                    out = pool.get_workspace(shape)
                    view = out.reshape(-1)
                    return view
                """
            },
        )
        escapes = [f for f in report.findings if f.rule == "buffer-escape"]
        assert len(escapes) == 1
        assert "'view'" in escapes[0].message

    def test_copy_detaches_and_providers_are_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                def get_workspace(pool, shape):
                    buf = pool.acquire_buffer(shape)
                    return buf  # providers hand out scratch by design

                def compute(pool, shape):
                    out = pool.get_workspace(shape)
                    return out.copy()

                def compute_fresh(pool, shape):
                    out = pool.get_workspace(shape)
                    result = out + 1  # arithmetic allocates a fresh array
                    return result
                """
            },
        )
        assert "buffer-escape" not in rules_of(report)

    def test_helper_call_arguments_are_not_escapes(self, tmp_path):
        # passing a buffer to a helper is the helper's responsibility, not
        # an escape at the call site (the neuron fast path's exact shape)
        report = lint(
            tmp_path,
            {
                "calls.py": """
                def compute(pool, shape):
                    mem = pool.get_workspace(shape)
                    scratch = pool.get_workspace(shape)
                    return finalize(mem, scratch)
                """
            },
        )
        assert "buffer-escape" not in rules_of(report)

    def test_pooled_index_list_through_attach_events_is_flagged(self, tmp_path):
        # PR 8: attach_events pins the index array to a tensor consumed on a
        # later step, so a pooled index buffer escapes through it
        report = lint(
            tmp_path,
            {
                "sparse_bad.py": """
                def emit(pool, spikes, out):
                    events = pool.get_workspace(spikes.size)
                    return attach_events(out, events)
                """
            },
        )
        escapes = [f for f in report.findings if f.rule == "buffer-escape"]
        assert len(escapes) == 1
        assert "'events'" in escapes[0].message

    def test_fresh_or_copied_index_list_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "sparse_good.py": """
                import numpy as np

                def emit_fresh(spikes, out):
                    events = np.flatnonzero(spikes)  # owning array, no pool
                    return attach_events(out, events)

                def emit_copied(pool, spikes, out):
                    events = pool.get_workspace(spikes.size)
                    return attach_events(out, events.copy())
                """
            },
        )
        assert "buffer-escape" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: metrics-hygiene
# ---------------------------------------------------------------------------

class TestMetricsHygiene:
    def test_registration_in_request_path_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                class Handler:
                    def handle(self, registry):
                        counter = registry.counter("requests_total", "requests")
                        counter.inc()
                """
            },
        )
        metrics = [f for f in report.findings if f.rule == "metrics-hygiene"]
        assert len(metrics) == 1
        assert "move registration" in metrics[0].message

    def test_dynamic_name_and_labels_are_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "dynamic.py": """
                KIND = "http"
                COUNTER = registry.counter(f"requests_{KIND}", "requests")
                GAUGE = registry.gauge("rows", "rows", labelnames=make_labels())
                """
            },
        )
        metrics = [f for f in report.findings if f.rule == "metrics-hygiene"]
        assert len(metrics) == 2
        messages = " | ".join(f.message for f in metrics)
        assert "string literal" in messages
        assert "literal tuple/list" in messages

    def test_module_scope_and_init_registration_are_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                COUNTER = registry.counter("requests_total", "requests", labelnames=("method",))

                class Server:
                    def __init__(self, registry):
                        self.rows = registry.gauge("store_rows", "rows in the store")
                """
            },
        )
        assert "metrics-hygiene" not in rules_of(report)

    def test_span_hygiene_flags_dynamic_names_and_bare_opens(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad_spans.py": """
                def evaluate(name, trace):
                    with span(f"evaluate.{name}"):
                        pass
                    dangling = trace.span("dangling")
                    return dangling
                """
            },
        )
        metrics = [f for f in report.findings if f.rule == "metrics-hygiene"]
        assert len(metrics) == 2
        messages = " | ".join(f.message for f in metrics)
        assert "span name must be a string literal" in messages
        assert "outside a with block" in messages

    def test_span_in_with_block_with_literal_name_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good_spans.py": """
                def evaluate(arch):
                    with span("evaluate", arch=arch) as current:
                        if current:
                            current.set(accuracy=1.0)
                    with ops_span("op.conv2d", patches=4):
                        pass
                """
            },
        )
        assert "metrics-hygiene" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: store-schema-drift
# ---------------------------------------------------------------------------

class TestStoreSchemaDrift:
    def test_written_but_never_read_key_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "writer.py": """
                def result_to_row(result):
                    return {"objective": result.value, "orphan": 1}
                """,
                "reader.py": """
                def row_to_result(row):
                    return row.get("objective", 0.0)
                """,
            },
        )
        drift = [f for f in report.findings if f.rule == "store-schema-drift"]
        assert len(drift) == 1
        assert "'orphan'" in drift[0].message
        assert drift[0].path == "writer.py"

    def test_all_keys_read_is_clean_and_extra_reads_are_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "writer.py": """
                def result_to_row(result):
                    return {"objective": result.value}
                """,
                "reader.py": """
                def row_to_result(row):
                    legacy = row.get("old_field", None)  # reading unwritten keys is fine
                    return row["objective"], legacy
                """,
            },
        )
        assert "store-schema-drift" not in rules_of(report)

    def test_rule_is_silent_without_both_sides(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "writer_only.py": """
                def result_to_row(result):
                    return {"objective": result.value}
                """
            },
        )
        assert "store-schema-drift" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: primitive-coverage
# ---------------------------------------------------------------------------

class TestPrimitiveCoverage:
    def test_primitive_without_vjp_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                from repro.tensor.primitives import Primitive, register

                def _gelu_fwd(a, want_ctx=False):
                    return a, None

                def _gelu_jvp(ctx, tangents):
                    return tangents[0]

                GELU = register(Primitive("gelu", forward=_gelu_fwd, jvp=_gelu_jvp))
                BAD = Primitive("bad", forward=_gelu_fwd, vjp=None, jvp=_gelu_jvp)
                """
            },
        )
        findings = [f for f in report.findings if f.rule == "primitive-coverage"]
        assert len(findings) == 2
        assert "'gelu'" in findings[0].message and "without a vjp" in findings[0].message
        assert "'bad'" in findings[1].message and "vjp=None" in findings[1].message

    def test_write_only_residual_stash_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "kernel.py": """
                class BrokenKernel:
                    def forward(self, t, x):
                        buf = self.stash("xc", x.shape)
                        buf[t] = x
                        return x * 2.0

                    def adjoint(self, g):
                        return g * 2.0  # never reads the stashed residual back
                """
            },
        )
        findings = [f for f in report.findings if f.rule == "primitive-coverage"]
        assert len(findings) == 1
        assert "BrokenKernel" in findings[0].message
        assert "write-only" in findings[0].message

    def test_declared_vjp_and_consumed_residuals_are_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                from repro.tensor.primitives import Primitive

                def _relu_fwd(a, want_ctx=False):
                    return a, a

                def _relu_vjp(ctx, g, needs):
                    return (g * (ctx > 0),)

                def _relu_jvp(ctx, tangents):
                    return tangents[0]

                RELU = Primitive("relu", forward=_relu_fwd, vjp=_relu_vjp, jvp=_relu_jvp)

                class FusedKernel:
                    def forward(self, t, x):
                        buf = self.stash("xc", x.shape)
                        buf[t] = x
                        return x * 2.0

                    def adjoint(self, t, g):
                        return g * self.stashed("xc", t)
                """
            },
        )
        assert "primitive-coverage" not in rules_of(report)

    def test_kwargs_construction_and_stashless_classes_are_out_of_scope(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "opaque.py": """
                from repro.tensor.primitives import Primitive

                def build(**spec):
                    return Primitive("dynamic", **spec)

                class NoResiduals:
                    def forward(self, x):
                        return x + 1.0
                """
            },
        )
        assert "primitive-coverage" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: swallowed-exception
# ---------------------------------------------------------------------------

class TestSwallowedException:
    def test_silent_broad_handler_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                def probe(func):
                    try:
                        func()
                    except Exception:
                        pass
                """
            },
        )
        assert rules_of(report) == ["swallowed-exception"]

    def test_referencing_or_reraising_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                def probe(func, log):
                    try:
                        func()
                    except Exception as error:
                        log(error)

                def strict(func):
                    try:
                        func()
                    except Exception:
                        raise RuntimeError("probe failed") from None

                def narrow(func):
                    try:
                        func()
                    except ValueError:
                        pass
                """
            },
        )
        assert "swallowed-exception" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: undeclared-dependency
# ---------------------------------------------------------------------------

PYPROJECT = """
[build-system]
requires = ["setuptools>=61"]

[project]
name = "demo"
dependencies = [
    # a comment with "quotes" and [brackets]
    "NumPy>=2.0",
    'scipy_extra[fast] >= 1.0',
]

[project.optional-dependencies]
graph = ["networkx>=2.6"]
"dev" = [
    "pytest>=7",
    "PyYAML",
]

[tool.other]
dependencies = ["not-a-project-dependency"]
"""


class TestUndeclaredDependency:
    def test_undeclared_and_extra_only_module_imports_are_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "pyproject.toml": PYPROJECT,
                "src/demo/__init__.py": "",
                "src/demo/core.py": """
                import networkx as nx
                from requests import get

                class Loader:
                    import yaml

                def fetch():
                    import toolz
                    return toolz, nx, get
                """,
            },
        )
        found = [f for f in report.findings if f.rule == "undeclared-dependency"]
        assert [(f.path, f.line) for f in found] == [
            ("src/demo/core.py", 2),
            ("src/demo/core.py", 3),
            ("src/demo/core.py", 6),
            ("src/demo/core.py", 9),
        ]
        assert "only in the optional extra(s) graph" in found[0].message
        assert "'requests'" in found[1].message and "[project].dependencies of" in found[1].message
        assert "only in the optional extra(s) dev" in found[2].message  # class bodies run at import
        assert "or an optional extra" in found[3].message

    def test_declared_stdlib_first_party_and_local_extras_are_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "pyproject.toml": PYPROJECT,
                "src/demo/__init__.py": "",
                "src/demo/core.py": """
                from __future__ import annotations

                import json
                import os.path
                import numpy as np
                import scipy_extra.fast
                from demo import helpers
                from . import helpers as again

                def export():
                    import networkx
                    import yaml
                    return networkx, yaml, json, os, np, scipy_extra, helpers, again
                """,
                "src/demo/helpers.py": "",
                # outside src/: benchmarks and tools may use dev-only libraries
                "tools/script.py": "import requests\n",
            },
        )
        assert "undeclared-dependency" not in rules_of(report)

    def test_toml_subset_parser(self):
        from tools.analyze.rules.undeclared_dependency import parse_declared

        required, extras = parse_declared(textwrap.dedent(PYPROJECT))
        assert required == {"numpy", "scipy-extra"}
        assert extras == {"graph": {"networkx"}, "dev": {"pytest", "pyyaml"}}

    def test_toml_subset_parser_agrees_with_tomllib_on_the_repo(self):
        tomllib = pytest.importorskip("tomllib")
        from tools.analyze.rules.undeclared_dependency import normalize, parse_declared

        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        project = tomllib.loads(text)["project"]
        def names(requirements):
            return {normalize(re.match(r"[A-Za-z0-9._-]+", req).group(0)) for req in requirements}

        required, extras = parse_declared(text)
        assert required == names(project["dependencies"])
        assert extras == {key: names(reqs) for key, reqs in project["optional-dependencies"].items()}

    def test_listed_stdlib_names_cover_python39(self):
        """The Python 3.9 fallback (no sys.stdlib_module_names) finds pure,
        extension and built-in standard modules but no installed package."""
        from tools.analyze.rules.undeclared_dependency import listed_stdlib_names

        names = listed_stdlib_names()
        assert {"json", "concurrent", "sys", "math", "_thread", "__future__"} <= names
        assert not {"numpy", "scipy", "site-packages"} & names


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------

class TestSuppressions:
    BAD_BODY = """
    def probe(func):
        try:
            func()
        except Exception:{comment}
            pass
    """

    def test_suppression_with_reason_silences_and_is_reported(self, tmp_path):
        source = self.BAD_BODY.format(
            comment="  # repro-lint: disable=swallowed-exception (probe result is the only output)"
        )
        report = lint(tmp_path, {"fixture.py": source})
        assert report.findings == []
        assert len(report.suppressed) == 1
        finding, suppression = report.suppressed[0]
        assert finding.rule == "swallowed-exception"
        assert suppression.reason == "probe result is the only output"
        assert report.exit_code == 0

    def test_suppression_without_reason_fails(self, tmp_path):
        source = self.BAD_BODY.format(comment="  # repro-lint: disable=swallowed-exception")
        report = lint(tmp_path, {"fixture.py": source})
        # the lazy suppression silences nothing AND is itself a finding
        assert sorted(rules_of(report)) == ["bad-suppression", "swallowed-exception"]
        assert report.exit_code == 1

    def test_suppression_only_covers_named_rules(self, tmp_path):
        source = self.BAD_BODY.format(
            comment="  # repro-lint: disable=buffer-escape (wrong rule named)"
        )
        report = lint(tmp_path, {"fixture.py": source})
        assert rules_of(report) == ["swallowed-exception"]

    def test_standalone_comment_covers_next_line(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "fixture.py": """
                def probe(func):
                    try:
                        func()
                    # repro-lint: disable=swallowed-exception (fallback is the contract)
                    except Exception:
                        pass
                """
            },
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# baseline mechanics
# ---------------------------------------------------------------------------

class TestBaseline:
    DIRTY = {
        "dirty.py": """
        def probe(func):
            try:
                func()
            except Exception:
                pass
        """
    }

    def test_baselined_finding_passes_and_is_reported(self, tmp_path):
        first = lint(tmp_path, dict(self.DIRTY))
        assert first.exit_code == 1
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        second = run_analysis([tmp_path], root=tmp_path, baseline_path=baseline)
        assert second.findings == []
        assert [f.rule for f in second.baselined] == ["swallowed-exception"]
        assert second.exit_code == 0

    def test_stale_baseline_entry_fails(self, tmp_path):
        first = lint(tmp_path, dict(self.DIRTY))
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        # fix the code: the baseline entry is now stale and must fail the run
        (tmp_path / "dirty.py").write_text(
            textwrap.dedent(
                """
                def probe(func, log):
                    try:
                        func()
                    except Exception as error:
                        log(error)
                """
            ),
            encoding="utf-8",
        )
        report = run_analysis([tmp_path], root=tmp_path, baseline_path=baseline)
        assert report.findings == []
        assert len(report.stale_baseline) == 1
        assert report.exit_code == 1

    def test_update_baseline_rewrites_to_reality(self, tmp_path):
        lint(tmp_path, dict(self.DIRTY))
        baseline = tmp_path / "baseline.json"
        report = run_analysis(
            [tmp_path], root=tmp_path, baseline_path=baseline, update_baseline=True
        )
        assert report.exit_code == 0
        payload = json.loads(baseline.read_text())
        assert [entry["rule"] for entry in payload["findings"]] == ["swallowed-exception"]

    def test_fingerprints_ignore_line_numbers(self, tmp_path):
        first = lint(tmp_path, dict(self.DIRTY))
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        # prepend code: every finding moves, but fingerprints must still match
        moved = "HEADER = 1\n\n\n" + (tmp_path / "dirty.py").read_text()
        (tmp_path / "dirty.py").write_text(moved, encoding="utf-8")
        report = run_analysis([tmp_path], root=tmp_path, baseline_path=baseline)
        assert report.findings == []
        assert report.stale_baseline == []
        assert report.exit_code == 0


# ---------------------------------------------------------------------------
# engine odds and ends
# ---------------------------------------------------------------------------

class TestEngine:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        report = lint(tmp_path, {"broken.py": "def f(:\n    pass\n"})
        assert rules_of(report) == ["parse-error"]
        assert report.exit_code == 1

    def test_select_and_ignore_narrow_the_rule_set(self, tmp_path):
        sources = {
            "mixed.py": """
            def probe(func, items):
                try:
                    func()
                except Exception:
                    pass
                return parallel_map(lambda x: x, items)
            """
        }
        only_spawn = lint(tmp_path, dict(sources), select=["spawn-safety"])
        assert rules_of(only_spawn) == ["spawn-safety"]
        without_spawn = lint(tmp_path, dict(sources), ignore=["spawn-safety"])
        assert rules_of(without_spawn) == ["swallowed-exception"]

    def test_unknown_rule_selection_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            lint(tmp_path, {"empty.py": ""}, select=["no-such-rule"])

    def test_registry_has_the_documented_rules(self):
        names = set(all_rules())
        assert {
            "spawn-safety",
            "lock-discipline",
            "buffer-escape",
            "metrics-hygiene",
            "store-schema-drift",
            "swallowed-exception",
            "undeclared-dependency",
        } <= names


# ---------------------------------------------------------------------------
# acceptance: the real repository is clean
# ---------------------------------------------------------------------------

class TestRepositoryIsClean:
    def test_repo_passes_with_empty_baseline(self):
        baseline = ROOT / "tools" / "analyze" / "baseline.json"
        assert json.loads(baseline.read_text())["findings"] == []
        report = run_analysis(
            [ROOT / "src", ROOT / "tools", ROOT / "benchmarks", ROOT / "examples"],
            root=ROOT,
            baseline_path=baseline,
        )
        assert report.findings == []
        assert report.stale_baseline == []
        assert report.exit_code == 0
        # the intentional aliasing/fallback sites stay enumerable
        assert len(report.suppressed) >= 3


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_python_m_tools_analyze_json_output(self, tmp_path):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            "def probe(func):\n    try:\n        func()\n    except Exception:\n        pass\n",
            encoding="utf-8",
        )
        output = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.analyze",
                str(tmp_path),
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(output),
                "--root",
                str(tmp_path),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [f["rule"] for f in payload["findings"]] == ["swallowed-exception"]
        assert payload["exit_code"] == 1
        archived = json.loads(output.read_text())
        assert archived["findings"] == payload["findings"]

    def test_repro_lint_subcommand_lists_rules(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(ROOT)
        assert main(["lint", "--", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-discipline" in out
        assert "buffer-escape" in out
