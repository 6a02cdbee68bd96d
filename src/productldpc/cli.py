"""Command-line entry point.

Each subcommand is a thin adapter over one library operation: it parses
and validates flags, calls the operation and writes the declared
outputs.  Flags are checked before any work starts, down to the
directory of every output path.  The command group turns any failure
into a one-line diagnostic and a nonzero exit.  No numerics live here.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import fields

import click
import numpy as np

from . import __version__
from .alist import read_alist, write_alist
from .analysis import (
    WeightSpectrum,
    exhaustive_spectrum,
    load_spectrum,
    low_weight_search,
    save_spectrum,
    union_bound,
    write_union_bound_csv,
)
from .components import build_uncoded, parse_component_spec
from .decoder import spa_decode
from .gf2 import check_int
from .peg import design_circulant, design_generic, local_girth
from .product import ProductCode, load_permutation_array, save_permutation_array
from .simulate import SimConfig, run_sweep, write_sim_csv


MAX_EBN0_POINTS = 100_000


def _parse_ebn0(text: str) -> list:
    """Comma list ("1,2,3") or inclusive range ("start:stop:step"), all finite."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)) or parts[2] <= 0:
            raise ValueError(
                f"bad Eb/N0 range {text!r}, use start:stop:step with finite values"
            )
        start, stop, step = parts
        # Compared as a float first: finite bounds can still give inf here.
        steps = (stop - start) / step + 1e-9
        if steps >= MAX_EBN0_POINTS:
            raise ValueError(
                f"Eb/N0 range {text!r} has more than {MAX_EBN0_POINTS} points"
            )
        if steps < 0:
            raise ValueError(f"Eb/N0 range {text!r} has no points: stop is below start")
        return [start + i * step for i in range(math.floor(steps) + 1)]
    grid = [float(p) for p in text.split(",") if p]
    if not grid:
        raise ValueError(f"Eb/N0 list {text!r} has no points")
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"Eb/N0 values must be finite, got {text!r}")
    return grid


def _build_code(comp_a: str, comp_b: str, perms_path) -> ProductCode:
    a, b = parse_component_spec(comp_a), parse_component_spec(comp_b)
    table = None if perms_path is None else load_permutation_array(perms_path)
    try:
        return ProductCode(a, b, table)
    except MemoryError as exc:
        raise MemoryError(
            f"building the {comp_a} x {comp_b} product code (n={a.n * b.n}): {exc}"
        ) from None


def _meta(**params) -> dict:
    return {"tool": f"productldpc {__version__}", "params": params}


class _OneLineErrors(click.Group):
    """A command group whose commands report bad input, missing files,
    missing keys and running out of memory as one ``error:`` line on
    stderr, with exit status 1, and bad flags the same way, with click's
    exit status 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(exc.exit_code)
        except (ValueError, OSError, KeyError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            click.echo(f"error: out of memory in {ctx.invoked_subcommand}{detail}", err=True)
            sys.exit(1)


class _OutputPath(click.Path):
    """A file to write, in a directory that already exists."""

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            self.fail(f"directory {folder!r} does not exist", param, ctx)
        return path


@click.group(cls=_OneLineErrors)
@click.version_option(version=__version__)
def main() -> None:
    """Product LDPC code construction, analysis and simulation."""


@main.command()
@click.option("--comp-a", required=True, help="row component, e.g. mscmpc:81:9,10")
@click.option("--comp-b", required=True, help="column component")
@click.option("--perms", type=click.Path(exists=True), default=None,
              help="permutation-array JSON for an interleaved code")
@click.option("--out", required=True, type=_OutputPath(), help="alist output path")
def construct(comp_a, comp_b, perms, out):
    """Assemble a (possibly interleaved) product code parity-check matrix."""
    pc = _build_code(comp_a, comp_b, perms)
    write_alist(pc.H, out)
    click.echo(f"wrote {pc.H.rows}x{pc.H.cols} matrix for (n,k)=({pc.n},{pc.k}) to {out}")


@main.command()
@click.option("--variant", type=click.Choice(["circulant", "generic"]), required=True)
@click.option("--seed", type=int, required=True)
@click.option("--comp-a", required=True)
@click.option("--comp-b", required=True)
@click.option("--out", required=True, type=_OutputPath())
def peg(variant, seed, comp_a, comp_b, out):
    """Design a column-interleaver permutation array."""
    a = parse_component_spec(comp_a)
    b = parse_component_spec(comp_b)
    design = design_circulant if variant == "circulant" else design_generic
    t0 = time.perf_counter()
    perms = design(a, b, seed)
    design_s = time.perf_counter() - t0
    meta = _meta(variant=variant, seed=seed, comp_a=comp_a, comp_b=comp_b)
    meta["seed"] = seed
    save_permutation_array(perms, out, meta=meta)
    click.echo(f"seed={seed} variant={variant}: wrote {len(perms)} permutations to {out}")
    click.echo(f"design_s={design_s:.3f}")


@main.command()
@click.option("--in", "alist_path", required=True, type=click.Path(exists=True))
@click.option("--json", "json_path", type=_OutputPath(), default=None,
              help="also write the full report as JSON")
def girth(alist_path, json_path):
    """Measure global and per-variable local girth of an alist matrix."""
    report = local_girth(read_alist(alist_path))
    names = {length: "inf" if math.isinf(length) else str(int(length))
             for length in [report.global_girth, *report.histogram]}
    gg = names[report.global_girth]
    histogram = {names[length]: count for length, count in report.histogram.items()}
    click.echo(f"global_girth={gg}")
    for name, count in histogram.items():
        click.echo(f"local_girth[{name}]={count}")
    if json_path:
        doc = {
            "global_girth": None if gg == "inf" else int(gg),
            "histogram": histogram,
            "meta": _meta(input=str(alist_path)),
        }
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


@main.command()
@click.option("--comp", required=True, help="component used on both dimensions")
@click.option("--square", is_flag=True, required=True,
              help="confirm the square product construction")
@click.option("--perms", type=click.Path(exists=True), default=None)
@click.option("--out", required=True, type=_OutputPath())
def spectrum(comp, square, perms, out):
    """Exhaustive weight spectrum of a small square product code."""
    pc = _build_code(comp, comp, perms)
    spec = exhaustive_spectrum(pc)
    save_spectrum(spec, out, meta=_meta(comp=comp, perms=perms))
    click.echo(f"enumerated 2^{spec.k} codewords; min distance {spec.min_distance()}")


@main.command()
@click.option("--comp", required=True)
@click.option("--w-max", type=int, default=4, show_default=True)
@click.option("--out", type=_OutputPath(), default=None)
def mindist(comp, w_max, out):
    """Low-weight spectrum terms of a component code via pair-sum search."""
    code = parse_component_spec(comp)
    spec = low_weight_search(code, w_max)
    d = spec.min_distance()
    if math.isinf(d):
        click.echo(f"no codewords of weight <= {w_max}")
    else:
        click.echo(f"d={int(d)} multiplicity={spec.multiplicity(int(d))}")
    if out:
        save_spectrum(spec, out, meta=_meta(comp=comp, w_max=w_max))


@main.command()
@click.option("--spectrum", "spectrum_path", type=click.Path(exists=True), default=None)
@click.option("--weight", type=int, default=None, help="single-term weight")
@click.option("--multiplicity", type=int, default=None, help="single-term count")
@click.option("--n", "n_opt", type=int, default=None, help="code length (single-term)")
@click.option("--k", "k_opt", type=int, default=None, help="code dimension (single-term)")
@click.option("--rate", type=float, default=None, help="override k/n")
@click.option("--ebn0", required=True, help="comma list or start:stop:step in dB")
@click.option("--out", required=True, type=_OutputPath())
def bound(spectrum_path, weight, multiplicity, n_opt, k_opt, rate, ebn0, out):
    """Union bound curve from a spectrum file or a single spectrum term."""
    if spectrum_path is not None:
        spec = load_spectrum(spectrum_path)
    elif None not in (weight, multiplicity, n_opt, k_opt):
        spec = WeightSpectrum(
            n=n_opt, k=k_opt, counts={weight: multiplicity}, complete=False
        )
    else:
        raise ValueError("give --spectrum or all of --weight/--multiplicity/--n/--k")
    grid = _parse_ebn0(ebn0)
    r = rate if rate is not None else spec.k / spec.n
    fer, ber = union_bound(spec, r, grid)
    write_union_bound_csv(
        out, grid, fer, ber,
        meta={"tool": f"productldpc {__version__}", "rate": r,
              "spectrum": spectrum_path or f"A_{weight}={multiplicity}"},
    )
    click.echo(f"wrote {len(grid)} points to {out}")


@main.command()
@click.option("--comp-a", required=True)
@click.option("--comp-b", required=True)
@click.option("--perms", type=click.Path(exists=True), default=None)
@click.option("--info", "info_path", required=True, type=click.Path(exists=True),
              help="whitespace-separated information bits, length k")
@click.option("--out", required=True, type=_OutputPath())
def encode(comp_a, comp_b, perms, info_path, out):
    """Encode one information block to a codeword."""
    pc = _build_code(comp_a, comp_b, perms)
    with open(info_path) as fh:
        tokens = fh.read().split()
    bad = next((tok for tok in tokens if tok not in ("0", "1")), None)
    if bad is not None:
        raise ValueError(f"information bits must be 0 or 1, got {bad!r}")
    bits = np.array([tok == "1" for tok in tokens], dtype=np.uint8)
    codeword = pc.encode(bits)
    with open(out, "w") as fh:
        fh.write(" ".join(str(int(b)) for b in codeword) + "\n")
    click.echo(f"encoded {pc.k} bits to {pc.n}")


@main.command()
@click.option("--in", "alist_path", required=True, type=click.Path(exists=True))
@click.option("--llr", "llr_path", required=True, type=click.Path(exists=True),
              help="whitespace-separated channel LLRs, positive favors bit 0")
@click.option("--max-iter", type=int, default=100, show_default=True)
@click.option("--out", required=True, type=_OutputPath())
def decode(alist_path, llr_path, max_iter, out):
    """Sum-product decode one frame of channel LLRs."""
    H = read_alist(alist_path)
    with open(llr_path) as fh:
        llr = np.array([float(tok) for tok in fh.read().split()])
    result = spa_decode(H, llr, max_iter=max_iter)
    with open(out, "w") as fh:
        fh.write(" ".join(str(int(b)) for b in result.hard_bits) + "\n")
    click.echo(
        f"converged={result.converged} iterations={result.iterations_used}"
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=_OutputPath())
@click.option("--workers", type=int, default=1, show_default=True)
def simulate(config_path, out, workers):
    """Monte Carlo BER/FER sweep from a JSON config.

    Config keys: comp_a, comp_b, optional perms (path), or uncoded_n for
    the rate-1 reference; ebn0_db (list), max_iter, min_frame_errors,
    max_frames, seed.
    """
    with open(config_path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("ebn0_db"), list):
        raise ValueError("config must be a JSON object with an ebn0_db list")
    sweep_keys = {f.name for f in fields(SimConfig)} - {"code", "ebn0_db", "workers"}
    known = sorted(sweep_keys | {"comp_a", "comp_b", "perms", "uncoded_n", "ebn0_db"})
    unknown = sorted(doc.keys() - set(known))
    if unknown:
        raise ValueError(f"config has unknown keys {', '.join(unknown)}; "
                         f"known keys are {', '.join(known)}")
    if "uncoded_n" in doc:
        check_int("uncoded_n", doc["uncoded_n"], 1)
        code = build_uncoded(doc["uncoded_n"])
        mixed = [key for key in ("comp_a", "comp_b", "perms") if key in doc]
        if mixed:
            raise ValueError(
                f"config gives uncoded_n together with {', '.join(mixed)}; give one code"
            )
    else:
        for key in ("comp_a", "comp_b"):
            if not isinstance(doc.get(key), str):
                raise ValueError(f"config {key} must be a component spec string")
        if not isinstance(doc.get("perms"), (str, type(None))):
            raise ValueError("config perms must be a path string or null")
        code = _build_code(doc["comp_a"], doc["comp_b"], doc.get("perms"))
    cfg = SimConfig(
        code=code,
        ebn0_db=doc["ebn0_db"],
        workers=workers,
        **{key: doc[key] for key in sweep_keys if key in doc},
    )
    click.echo(f"seed={cfg.seed} workers={workers} code={code.label}")
    result = run_sweep(cfg)
    result.meta["workers_hint"] = workers
    result.meta["config"] = str(config_path)
    write_sim_csv(out, result)
    for p in result.points:
        click.echo(
            f"ebn0={p.ebn0_db:.2f}dB frames={p.frames} fer={p.fer:.3e} ber={p.ber:.3e}"
        )


if __name__ == "__main__":
    main()
