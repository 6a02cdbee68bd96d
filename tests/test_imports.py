"""What the package modules may import, which may define a code, and which
may hold a `global` statement.

Only the sweep, the CLI and the package's public namespace decode; the
construction and analysis layers must stay importable without it.  The
runtime is numpy and click alone: no module imports scipy, and the
analysis layer takes from the package only its GF(2) helpers, so it
reads any code by its fields.  Every code follows one protocol, defined
by the component and product modules alone, so no second code class can
grow elsewhere.  Only the sweep rebinds a module name at run time, for
its pool worker's code; the decoder keeps its state per thread.  The
`ast` pins see only what they name; a fresh interpreter with scipy
blocked catches the imports they cannot see.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import productldpc

PACKAGE = Path(productldpc.__file__).parent


def _imports(source: str) -> tuple[set[str], set[str]]:
    """(outside packages, package modules) that a source imports from,
    each by its first dotted part: `from scipy.special import erfc` gives
    scipy, and `from .gf2 import check_int` or `from productldpc import
    gf2` gives gf2."""
    outside, package = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] not in ("", "productldpc"):
                outside.add(parts[0])
            else:
                package.update(part for part in parts[1:2] if part)
    return outside, package


def _sources():
    return {path.name: path.read_text() for path in PACKAGE.rglob("*.py")}


def _defines_an_encoder(source: str) -> bool:
    return any(
        isinstance(node, ast.ClassDef)
        and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "encode" for item in node.body)
        for node in ast.walk(ast.parse(source))
    )


def test_only_the_sweep_and_the_cli_import_the_decoder():
    importers = {name for name, source in _sources().items() if "decoder" in _imports(source)[1]}
    assert importers == {"__init__.py", "cli.py", "simulate.py"}


def test_no_module_imports_scipy():
    importers = {name for name, source in _sources().items() if "scipy" in _imports(source)[0]}
    assert importers == set()


def test_analysis_takes_only_gf2_from_the_package():
    assert _imports(_sources()["analysis.py"])[1] == {"gf2"}


def test_only_the_component_and_product_modules_define_codes():
    definers = {name for name, source in _sources().items() if _defines_an_encoder(source)}
    assert definers == {"components.py", "product.py"}


def test_only_the_sweep_has_a_global_statement():
    setters = {name for name, source in _sources().items()
               if any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(source)))}
    assert setters == {"simulate.py"}


def test_bound_runs_with_scipy_blocked(tmp_path):
    # A None entry in sys.modules makes every import of scipy, or of any
    # of its submodules, raise ImportError, however deep the import chain.
    script = "import sys; sys.modules['scipy'] = None; from productldpc.cli import main; main()"
    out = tmp_path / "pc_ub.csv"
    args = ["bound", "--weight", "16", "--multiplicity", "4100625", "--n", "10000",
            "--k", "6561", "--ebn0", "1:4:0.25", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "ebn0_db,fer_ub,ber_ub" and len(rows) == 14
