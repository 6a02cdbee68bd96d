"""Which package modules may import the decoder.

Only the sweep, the CLI and the package's public namespace decode; the
construction and analysis layers must stay importable without it.
"""

import ast
from pathlib import Path

import productldpc

PACKAGE = Path(productldpc.__file__).parent


def _imports_decoder(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name in (".decoder", "productldpc.decoder") for name in names):
            return True
    return False


def test_only_the_sweep_and_the_cli_import_the_decoder():
    importers = {
        path.name for path in PACKAGE.glob("*.py") if _imports_decoder(path.read_text())
    }
    assert importers == {"__init__.py", "cli.py", "simulate.py"}

