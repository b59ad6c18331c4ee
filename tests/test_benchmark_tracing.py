"""The benchmark's tracer patches names it looks up in chopshop's modules.

``benchmarks/tracing.py`` lists (module, name) pairs and ``Tracer.install``
fetches each with a bare ``getattr``, so a refactor that drops one of those
imports breaks ``benchmarks/run.py --trace 1`` without failing anything
else.  The first test resolves every pair; the second checks that the
command reaches each name it patches in ``chopshop.cli``; the third pins
the ``numerical_kernel`` call order the tracer's kernel split relies on;
the fourth checks that a graded elimination still shows up as one traced
Macaulay build; the fifth checks that every other name a module imports
is used there, so that an import kept only for the tracer is one of its
targets.  The sixth holds the package's public functions to the same
standard: each is named by some module of the package or says why the
tests alone keep it.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [
        (module, name)
        for module, name in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"chopshop.{module}"), name, None))
    ]
    assert missing == []



# The smallest invocation of the command that reaches each name the tracer
# patches in ``chopshop.cli``.  "FORM" stands for a form file.
CLI_REACHES = {
    "verify_case": ["verify", "--n", "2", "--r", "18"],
    "verify_grid": ["verify-range", "--n", "2", "--r-from", "16", "--r-to", "16",
                    "--workers", "1"],
    "search_monomial_ideals": ["search-monomial", "--r", "18"],
    "decompose": ["waring-demo", "--n", "2", "--D", "6", "--r", "7", "--seed", "1"],
    "form_from_dict": ["decompose", "FORM", "--r", "7"],
    "predicted_gap": ["gap", "--n", "2", "--r", "18"],
}


def test_every_traced_cli_name_is_looked_up_at_call_time(monkeypatch, tmp_path, capsys):
    """The tracer replaces names in ``chopshop.cli``'s namespace.  A command
    that held the library function itself (in a table built at import, say)
    would bypass the replacement, and traced runs would lose their spans."""
    from chopshop import cli
    from chopshop.waring import form_from_points, form_to_dict, random_unit_points

    tracing = load_tracing()
    assert {name for module, name in tracing.TARGETS if module == "cli"} == set(CLI_REACHES)
    form = tmp_path / "form.json"
    points = random_unit_points(2, 7, 11)
    form.write_text(json.dumps(form_to_dict(form_from_points(points, [1.0] * 7, 6))))

    for name, argv in CLI_REACHES.items():
        calls = []
        original = getattr(cli, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        argv = [str(form) if word == "FORM" else word for word in argv]
        assert cli.run(argv) == 0, argv
        monkeypatch.setattr(cli, name, original)
        assert calls, f"{' '.join(argv)} did not call cli.{name}"
    capsys.readouterr()


def test_two_numerical_kernels_per_decompose(monkeypatch, capsys):
    """The tracer books a decompose's first ``numerical_kernel`` call as the
    catalecticant kernel and every later one as the Macaulay cokernel, so
    a decompose must make exactly those two calls, in that order: the
    catalecticant's with the rank hint, the cokernel's without.  A failed
    cokernel reads its quotient table off the same call, so the cokernel
    span covers that table too."""
    import numpy as np

    from chopshop import cli, waring

    kernel_hints, decompositions = [], []
    kernel, decompose = waring.numerical_kernel, cli.decompose

    def counting_kernel(mat, rank_hint=None, **kwargs):
        kernel_hints.append(rank_hint)
        return kernel(mat, rank_hint, **kwargs)

    def counting_decompose(*args, **kwargs):
        decompositions.append(1)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(waring, "numerical_kernel", counting_kernel)
    monkeypatch.setattr(cli, "decompose", counting_decompose)
    assert cli.run(["waring-demo", "--n", "2", "--D", "6", "--r", "7", "--seed", "1"]) == 0
    capsys.readouterr()
    assert decompositions == [1]
    assert kernel_hints == [7, None]

    # one below the form's true rank 50: the cokernel has the wrong dimension
    kernel_hints.clear()
    points = waring.random_unit_points(3, 50, seed=0)
    with pytest.raises(waring.DecompositionError) as exc:
        waring.decompose(waring.form_from_points(points, np.ones(50), 10), 49)
    assert "numerical_quotient" in exc.value.diagnostics
    assert kernel_hints == [49, None]


@pytest.mark.parametrize("n, r", [(3, 30), (4, 60)])
def test_a_pass_builds_one_macaulay_matrix(n, r, capsys):
    """A PASS reads every degree off one Macaulay matrix at degree d+G, and
    the tracer books it under ``pointideals.macaulay_matrix``: a refactor
    that built the matrix some other way would zero that metric's calls
    and size on the hard-regime workload without failing anything else."""
    from chopshop import cli, formulas, grading

    tracing = load_tracing()
    tracer = tracing.Tracer()
    modules = {m: importlib.import_module(f"chopshop.{m}") for m, _ in tracing.TARGETS}
    tracer.install(modules)
    try:
        assert cli.run(["verify", "--n", str(n), "--r", str(r), "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"
    params = formulas.CaseParams(n, r)
    d, gap = params.d, formulas.predicted_gap(params).gap
    g = grading.hs(n, d) - r
    # the rows the points fix, all but one, leave one zero sink row
    shape = (grading.hs(n, d + gap) - r + 2, g * grading.hs(n, gap))
    assert [s[5] for s in tracer.spans if s[0] == "pointideals.macaulay_matrix"] == [shape]
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["pointideals.macaulay_matrix_calls"] == 1
    assert metrics["pointideals.macaulay_matrix.max_mb"] == shape[0] * shape[1] * 8 / 1e6


def test_every_import_is_used_or_traced():
    """A name a module imports but never uses is dead, unless the tracer
    patches it there (``pointideals.gap_upper_bound`` is looked up by
    ``TARGETS`` only).  ``__init__`` re-exports, so it is not checked."""
    traced = set(load_tracing().TARGETS)
    unused = []
    for path in sorted((ROOT / "src" / "chopshop").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in sorted(imported - used)
                   if (path.stem, name) not in traced]
    assert unused == []


def test_every_public_function_is_called_or_kept_for_a_reason():
    """A public function or method that no module of the package names has
    no caller outside the tests, and its docstring must say why it is kept
    ("No caller outside the tests: ..."); otherwise it is dead code."""
    named, public = set(), []
    for path in sorted((ROOT / "src" / "chopshop").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        public += [(path.stem, node) for scope in scopes for node in scope.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    unexplained = [(module, node.name) for module, node in public
                   if node.name not in named
                   and "No caller outside the tests:" not in (ast.get_docstring(node) or "")]
    assert unexplained == []
