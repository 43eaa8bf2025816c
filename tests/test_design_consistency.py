"""Meta-tests: the documentation's promises are structurally true.

DESIGN.md maps every experiment to a benchmark file and every subsystem
to a module; these tests keep that map from rotting.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestDesignDocument:
    def test_every_listed_bench_exists(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        bench_files = set(re.findall(r"benchmarks/(test_bench_\w+\.py)", design))
        assert bench_files, "DESIGN.md should reference benchmark files"
        for name in bench_files:
            assert (REPO / "benchmarks" / name).exists(), name

    def test_every_bench_file_listed(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        on_disk = {
            path.name for path in (REPO / "benchmarks").glob("test_bench_*.py")
        }
        listed = set(re.findall(r"benchmarks/(test_bench_\w+\.py)", design))
        missing = on_disk - listed - {
            # Performance-only benches need no experiment-table row, but
            # keep the exclusion list explicit so additions are conscious.
            "test_bench_solver_performance.py",
        }
        assert on_disk <= listed | {"test_bench_solver_performance.py"}, (
            f"benches not documented in DESIGN.md: {sorted(missing)}"
        )

    def test_experiment_ids_are_unique(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        ids = re.findall(r"^\| (E\d+) \|", design, flags=re.MULTILINE)
        assert len(ids) == len(set(ids))
        assert len(ids) >= 15

    def test_experiments_md_covers_design_ids(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        experiments = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        design_ids = set(
            re.findall(r"^\| (E\d+) \|", design, flags=re.MULTILINE)
        )
        for experiment_id in design_ids:
            assert re.search(
                rf"\b{experiment_id} ", experiments
            ), f"{experiment_id} has no EXPERIMENTS.md entry"


class TestReadme:
    def test_example_table_matches_disk(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        listed = set(re.findall(r"`(\w+\.py)`", readme))
        on_disk = {path.name for path in (REPO / "examples").glob("*.py")}
        missing = on_disk - listed
        assert not missing, sorted(missing)

    def test_docs_exist(self):
        for name in ("ALGORITHM.md", "MODEL.md", "API.md"):
            assert (REPO / "docs" / name).exists()


class TestExamplesImportable:
    @pytest.mark.parametrize(
        "name",
        sorted(
            path.stem for path in (REPO / "examples").glob("*.py")
        ),
    )
    def test_example_compiles(self, name):
        import py_compile

        py_compile.compile(
            str(REPO / "examples" / f"{name}.py"), doraise=True
        )


def _src_names() -> set[str]:
    """Every class (at any depth) and module-level name under src/repro."""
    import ast

    names: set[str] = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names.update(
                    leaf.id
                    for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name)
                )
    return names


class TestDocumentedNames:
    """A backticked CamelCase name in the prose docs (alone, or leading
    a ``Name.attr`` / ``Name(...)`` span) must name something that
    exists, so a deleted class cannot linger in the documentation."""

    DOCS = sorted((REPO / "docs").glob("*.md")) + [
        REPO / name for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md")
    ]
    CAMEL = re.compile(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)(?=[`.(])")

    def test_backticked_camelcase_names_exist(self):
        names = _src_names()
        missing = sorted(
            f"{doc.relative_to(REPO)}: {name}"
            for doc in self.DOCS
            for name in set(self.CAMEL.findall(doc.read_text(encoding="utf-8")))
            if name not in names
        )
        assert not missing, missing
