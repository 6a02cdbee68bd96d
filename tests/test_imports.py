"""Which package modules may import the decoder, and which may define a code.

Only the sweep, the CLI and the package's public namespace decode; the
construction and analysis layers must stay importable without it.
Every code follows one protocol, defined by the component and product
modules alone, so no second code class can grow elsewhere.
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


def _defines_an_encoder(source: str) -> bool:
    return any(
        isinstance(node, ast.ClassDef)
        and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "encode" for item in node.body)
        for node in ast.walk(ast.parse(source))
    )


def test_only_the_sweep_and_the_cli_import_the_decoder():
    importers = {
        path.name for path in PACKAGE.glob("*.py") if _imports_decoder(path.read_text())
    }
    assert importers == {"__init__.py", "cli.py", "simulate.py"}


def test_only_the_component_and_product_modules_define_codes():
    definers = {
        path.name for path in PACKAGE.glob("*.py") if _defines_an_encoder(path.read_text())
    }
    assert definers == {"components.py", "product.py"}
