"""Command-line interface.

Exit codes: 0 clean, 1 negative verification/classification verdict,
2 usage error, including a call that would pass the work budget
(``CapExceeded``, one line naming the stage and its step count; only
``verify --allow-large`` lifts it) and, for ``classify``, ``radical`` and
``search``, a table on which a radical falls outside the hyperideal lattice
(possible only when the tables fail the Krasner axioms; the library raises
``KeyError`` there).  ``audit`` exits 0 even when cells fail or
discrepancies are found: those are findings, not tool errors.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import click

from . import __version__
from .audit import run_audit
from .catalog import (
    CatalogEntry,
    builtin_examples,
    default_catalog,
    enumerate_structures,
    search_counterexample,
)
from .classifiers import Verdict, classify
from .core import CapExceeded, verify_krasner
from .fileformat import ParseError, load_structure, save_structure
from .ideals import radical_by_powers, radical_by_primes
from .morphology import quotient

def _load(path) -> object:
    try:
        return load_structure(path)
    except (ParseError, OSError) as e:
        raise click.UsageError(f"{path}: {e}")


def _ideal_members(S, spec: str) -> frozenset:
    try:
        return frozenset(S.index_of(l.strip()) for l in spec.split(","))
    except Exception as e:
        raise click.UsageError(f"bad --ideal {spec!r}: {e}")


def _echo_json(obj) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


class _ToolError(click.ClickException):
    """A one-line error with exit code 2."""

    exit_code = 2


class _Workbench(click.Group):
    """Reports a call over the work budget as a one-line error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CapExceeded as e:
            raise _ToolError(str(e)) from None


@contextmanager
def _radical_outside_lattice():
    """Reports the ``KeyError`` of a radical that is not a hyperideal as a
    one-line error; only tables that fail the Krasner axioms have one."""
    try:
        yield
    except KeyError as e:
        raise _ToolError(
            f"a radical is not a hyperideal ({e}): the tables are not a Krasner hyperring"
        ) from None


def _catalog(fallback, use_default, use_builtin, files, seed=None, enum_spec=None) -> list:
    """Catalog entries from the source flags, in this order: the default
    catalog (or else the built-ins), the structures of one enumerated
    shape, then the files; ``fallback()`` when no source is given."""
    if not (use_default or use_builtin or enum_spec or files):
        return fallback()
    entries = default_catalog(seed=seed) if use_default else builtin_examples() if use_builtin else []
    if enum_spec:
        try:
            entries += [CatalogEntry(S, "enumerated") for S in enumerate_structures(*enum_spec)]
        except CapExceeded as e:
            click.echo(f"enumeration truncated: {e}", err=True)
        except ValueError as e:
            raise click.UsageError(f"--enumerate: {e}")
    return entries + [CatalogEntry(_load(path), "file") for path in files]


@click.group(cls=_Workbench)
@click.version_option(__version__)
def main() -> None:
    """Finite Krasner (m,n)-hyperring workbench."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="emit the full report as JSON")
@click.option("--allow-large", is_flag=True, help="lift the work budget of verification")
def verify(file, as_json, allow_large):
    """Check all Krasner axioms of a structure file."""
    S = _load(file)
    report = verify_krasner(S, size_guard=not allow_large)
    if as_json:
        _echo_json(report.as_dict())
    else:
        click.echo(f"{S.name}: Krasner axioms: {'pass' if report.ok else 'FAIL'}")
        for c in report.checks:
            mark = "ok" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            wit = f"  witness={c.witness}" if c.witness is not None else ""
            click.echo(f"  {c.axiom}: {mark}{note}{wit}")
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def ideals(file):
    """List every hyperideal of a structure."""
    S = _load(file)
    for ideal in S.lattice:
        click.echo("{" + ",".join(ideal.labels()) + "}")
    sys.exit(0)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def jacobson(file):
    """Print the Jacobson radical (intersection of maximal hyperideals)."""
    S = _load(file)
    click.echo("{" + ",".join(S.lattice.jacobson.labels()) + "}")
    sys.exit(0)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ideal", required=True, help="comma-separated member labels")
def radical(file, ideal):
    """Radical of a hyperideal (prime-intersection form, plus the power
    form when a scalar identity exists)."""
    S = _load(file)
    members = _ideal_members(S, ideal)
    if members not in S.lattice:
        click.echo("not a hyperideal")
        sys.exit(1)
    with _radical_outside_lattice():
        by_primes = radical_by_primes(S, members)
    click.echo("by-primes: {" + ",".join(by_primes.labels()) + "}")
    if S.one is not None:
        by_powers = radical_by_powers(S, members)
        click.echo("by-powers: {" + ",".join(S.labels_of(by_powers)) + "}")
    else:
        click.echo("by-powers: not applicable (no scalar identity)")
    sys.exit(0)


@main.command(name="classify")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ideal", required=True, help="comma-separated member labels")
@click.option("--delta", "deltas", multiple=True, help="restrict to these expansions")
@click.option("--kmax", default=3, show_default=True, help="largest absorbing degree")
def classify_cmd(file, ideal, deltas, kmax):
    """Classify one subset against every predicate."""
    S = _load(file)
    members = _ideal_members(S, ideal)
    with _radical_outside_lattice():
        registry = S.lattice.registry
    if deltas:
        unknown = [d for d in deltas if d not in registry]
        if unknown:
            raise click.UsageError(f"unknown expansion(s): {', '.join(unknown)}")
        registry = {k: v for k, v in registry.items() if k in deltas}
    report = classify(S, members, registry, kmax)
    _echo_json(report.as_dict())
    negative = (
        not report.is_ideal
        or not report.proper
        or any(v is Verdict.FALSE for v in report.verdicts.values())
    )
    sys.exit(1 if negative else 0)


@main.command(name="quotient")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ideal", required=True, help="comma-separated member labels")
@click.option("--out", type=click.Path(dir_okay=False), help="write the quotient structure")
def quotient_cmd(file, ideal, out):
    """Build the quotient by a hyperideal and verify it."""
    S = _load(file)
    members = _ideal_members(S, ideal)
    result = quotient(S, members)
    if not result.ok:
        click.echo("ill-defined quotient:")
        for p in result.problems:
            click.echo(f"  {p.axiom}: witness={p.witness}")
        sys.exit(1)
    Q = result.quotient.structure
    click.echo(f"quotient {Q.name}: {Q.size} element(s)")
    for i, coset in enumerate(result.quotient.cosets):
        click.echo(f"  [{Q.labels[i]}] = {{{','.join(S.labels_of(coset))}}}")
    click.echo(f"axioms: {'pass' if result.axiom_report.ok else 'FAIL'}")
    if out:
        save_structure(Q, out)
        click.echo(f"wrote {out}")
    sys.exit(0 if result.axiom_report.ok else 1)


@main.command()
@click.argument("files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--builtin", "use_builtin", is_flag=True, help="audit the built-in structures")
@click.option(
    "--enumerate",
    "enum_spec",
    nargs=3,
    type=int,
    metavar="M N ORDER",
    help="add all verified structures of one shape",
)
@click.option("--default-catalog", "use_default", is_flag=True, help="audit the full default catalog")
@click.option("--theorems", help="comma-separated theorem ids (default: all)")
@click.option("--out", type=click.Path(dir_okay=False), help="write line-delimited records")
@click.option("--kmax", default=3, show_default=True)
@click.option("--seed", type=int, default=None, help="seed for the sampled order-4 slice")
def audit(files, use_builtin, enum_spec, use_default, theorems, out, kmax, seed):
    """Run the theorem audit over a catalog.

    With no source options, audits the built-in structures.  Exit code 0
    even with FAIL cells or discrepancies; nonzero only on tool error.
    """
    entries = _catalog(builtin_examples, use_default, use_builtin, files, seed, enum_spec)
    ids = None
    if theorems:
        ids = [t.strip() for t in theorems.split(",") if t.strip()]
    try:
        report = run_audit(entries, ids, kmax)
    except KeyError as e:
        raise click.UsageError(str(e.args[0]))
    click.echo(report.summary_text(), nl=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_jsonl())
        click.echo(f"wrote {out}")
    sys.exit(0)


@main.group()
def catalog():
    """Catalog maintenance."""


@catalog.command()
@click.argument("directory", type=click.Path(file_okay=False))
@click.option("--max-order", default=3, show_default=True)
@click.option("--seed", type=int, default=None)
def export(directory, max_order, seed):
    """Write every default-catalog structure as a .kmn file."""
    os.makedirs(directory, exist_ok=True)
    for entry in default_catalog(max_order=max_order, seed=seed):
        path = os.path.join(directory, f"{entry.structure.name}.kmn")
        save_structure(entry.structure, path)
        click.echo(path)
    sys.exit(0)


@main.command()
@click.option("--implication", required=True, help="e.g. 'J => prime'")
@click.option("--builtin", "use_builtin", is_flag=True)
@click.option("--default-catalog", "use_default", is_flag=True)
@click.argument("files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
def search(implication, use_builtin, use_default, files):
    """Search the catalog for a counterexample to an implication."""
    entries = _catalog(default_catalog, use_default, use_builtin, files)
    try:
        with _radical_outside_lattice():
            hit = search_counterexample(implication, entries)
    except ValueError as e:
        raise click.UsageError(str(e))
    if hit is None:
        click.echo("no counterexample found")
    else:
        _echo_json(hit.as_dict())
    sys.exit(0)


if __name__ == "__main__":
    main()
