"""The package keeps only what a program path runs, plus the paper's claims.

A public module-level function or class that no module of ``adagibbs``
references (re-exports in ``__init__`` do not count) must be a paper claim
that only the tests check, or a documented entry point; both are listed here
and named in the README.  Anything else belongs in ``tests/oracles.py``.
"""

import ast
import pathlib

import adagibbs

PACKAGE = pathlib.Path(adagibbs.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

TEST_ONLY = {
    # paper claims checked by pytest alone
    "asvar_decomposition", "diminishing_monitor", "dominance_holds",
    "failure_probability_budget", "hoeffding_tail", "ladder_step_law",
    "mixture_decomposition", "mwg_kernel_matrix", "proposal_vs_kernel_tv",
    "scan_autocorrelation_relation", "systematic_to_random_scan",
    # documented entry points
    "gibbs_kernel_matrix", "systematic_scan_kernel", "unbounded_ladder_law",
    "write_trajectory_csv",
}


def unreferenced_public_names():
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    referenced = {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    }


def test_every_public_name_is_reached_or_listed():
    # an unused public function fails this; so does a listed name that a
    # program path now reaches, which then leaves the list
    assert unreferenced_public_names() == TEST_ONLY


def test_readme_names_every_listed_function():
    readme = README.read_text()
    assert sorted(n for n in TEST_ONLY if f"`{n}`" not in readme) == []
