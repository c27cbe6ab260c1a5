"""Command-line front end: every operation behind one executable.

A command's callback returns its report: the payload, or ``(payload,
passed)`` when it has a check that can fail.  One command class,
``_ReportCommand``, renders every report and sets the exit code.  Output
is JSON by default (canonical form: sorted keys, compact separators, one
trailing newline), so identical invocations are byte-identical;
``--format text`` renders the same structure as key: value lines.  Exit
codes: 0 success, 1 a computed check failed, 2 input or usage error (a
library ``ValueError`` and a result too long to print included), reported
as one ``Error: ...`` line on stderr.  Integer options take the grammar of
``--class``.  Seeded commands default to seed 1729.  ``hilb`` reads the
worker count from the SYMPENCIL_WORKERS environment variable, capped at
the CPUs the process may use and at ``--samples``; its output does not
depend on it.

A process imports only what its command uses: ``hilb``, ``brill_noether``
and ``applications`` load inside the commands that need them.

``main`` is the click group, for in-process callers. A process started as
``python -m sympencil.cli`` or through the ``sympencil`` script enters
through :func:`run` instead, which flushes the standard streams and leaves
with click's exit code without tearing the interpreter down. So nothing a
command runs may rely on interpreter shutdown: no ``atexit`` hook, no
finalizer, no file left open (``hilb``'s worker pool shuts down inside its
``with`` block).
"""

from __future__ import annotations

import io
import json
import os
import sys

import click

from . import __version__
from .catalog import format_rational, manifold_fields
from .gromov import duality_check, gromov_invariant, serre_dual, vanishing_profile
from .lattice import FourManifoldLattice, is_even_form, largest_block
from .pencil import build_pencil, count_decision, fibre_degree, residual_fibre_degree
from .strata import (MAX_B2, MAX_BLOCK, MAX_CLASSES, MAX_FILE_BYTES, MAX_R,
                     MAX_SAMPLES, STRATA)

DEFAULT_SEED = 1729
WORKERS_ENV = "SYMPENCIL_WORKERS"


def _render(payload, fmt: str) -> str:
    """The whole report as one string, without its trailing newline."""
    try:
        if fmt == "json":
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return "\n".join(_text_lines(payload))
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise click.UsageError(
            "the result holds an integer with too many digits to print")


def _text_lines(payload, prefix: str = ""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            name = f"{prefix}{key}"
            if isinstance(value, (dict, list)):
                yield from _text_lines(value, prefix=f"{name}.")
            else:
                yield f"{name}: {_text_value(value)}"
    elif isinstance(payload, list):
        if all(not isinstance(v, (dict, list)) for v in payload):
            items = ", ".join(_text_value(v) for v in payload)
            yield f"{prefix.rstrip('.')}: {items}"
        else:
            for i, value in enumerate(payload):
                yield from _text_lines(value, prefix=f"{prefix}{i}.")
    else:
        yield f"{prefix.rstrip('.')}: {_text_value(payload)}"


def _text_value(value) -> str:
    """A scalar as text. A string with a newline or another unprintable
    character is written as its JSON literal, so one value stays on one
    line and cannot forge another key's line."""
    if isinstance(value, str) and not value.isprintable():
        return json.dumps(value)
    return str(value)


def _parse_int(text: str) -> int:
    """An integer in the omega rule's form ``-?[0-9]+``, ASCII spaces
    around it allowed; anything else raises ``ValueError``. ``int()``
    alone also takes ``"+1"``, ``"1_0"`` and non-ASCII digits."""
    text = text.strip(" ")
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class _Integer(click.ParamType):
    """:func:`_parse_int` with click's message; ``int`` defaults pass."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return value if isinstance(value, int) else _parse_int(value)
        except ValueError:
            self.fail(f"{value!r} is not a valid integer.", param, ctx)


_INTEGER = _Integer()


def _load_json(path: str):
    """The JSON value in the file; reading stops one byte past
    ``MAX_FILE_BYTES``, so a larger file or an endless stream costs no
    more than that."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    if len(data) > MAX_FILE_BYTES:
        raise click.UsageError(
            f"{path} is larger than the {MAX_FILE_BYTES:,}-byte file limit")
    try:
        # Decoded as a text-mode open() would, newlines translated, so a
        # decode or syntax error reports the same position.
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise click.UsageError(f"{path} is nested too deeply to read")
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise click.UsageError(f"{path} holds an integer with too many digits")


def _manifold_fields(path: str) -> dict:
    """The constructor keywords of a manifold file, once its shape, its b2
    and its largest direct-sum block are within bounds. Both limits are
    checked on the rows as read, before the constructor eliminates."""
    data = _load_json(path)
    try:
        fields = manifold_fields(data)
    except ValueError as exc:
        raise click.UsageError(f"{path}: {exc}")
    form = fields["form"]
    if len(form) > MAX_B2:
        raise click.UsageError(
            f"{path} has b2 = {len(form):,}, past the b2 limit of {MAX_B2:,}")
    # No block has more rows than the form, so a smaller form is not scanned.
    block = largest_block(form) if len(form) > MAX_BLOCK else 0
    if block > MAX_BLOCK:
        raise click.UsageError(
            f"{path} has a direct-sum block of {block:,} rows, "
            f"past the {MAX_BLOCK:,}-row block limit")
    return fields


def _load_lattice(path: str) -> FourManifoldLattice:
    fields = _manifold_fields(path)
    try:
        return FourManifoldLattice(**fields)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"{path}: {exc}")


def _record_payload(record) -> dict:
    """A record's fields by name, with tuples written as lists."""
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in zip(record._fields, record._values())}


def _parse_class(text: str, width: int) -> tuple[int, ...]:
    try:
        coords = tuple(_parse_int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"class {text!r} is not a comma-separated integer list")
    if len(coords) != width:
        raise click.UsageError(
            f"class has {len(coords)} coordinates, lattice rank is {width}"
        )
    return coords


class _ReportCommand(click.Command):
    """A command whose callback returns its report, the payload or
    ``(payload, passed)``. Adds ``--format``, writes the command's name
    into a dict payload, renders it, and exits 1 when ``passed`` is false;
    a ``ValueError`` raised while computing it, or a report rendered whole
    that cannot be printed, is a usage error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(
            ["--format", "fmt"], type=click.Choice(["text", "json"]),
            default="json", show_default=True, help="Report rendering.",
        ))

    def invoke(self, ctx):
        fmt = ctx.params.pop("fmt")
        try:
            report = super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        payload, passed = report if isinstance(report, tuple) else (report, True)
        if isinstance(payload, dict):
            payload = {"command": self.name, **payload}
        click.echo(_render(payload, fmt))
        if not passed:
            ctx.exit(1)


class _Group(click.Group):
    """The command group. A usage error, whether click's parser or a
    command raises it, prints as one ``Error: ...`` line on stderr and
    exits 2: re-raised without its context, it carries no usage line and
    no help hint."""

    command_class = _ReportCommand

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            raise click.UsageError(exc.format_message()) from None

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            raise click.UsageError(exc.format_message()) from None


@click.group(cls=_Group, no_args_is_help=False,
             epilog=f"A JSON file read may hold at most {MAX_FILE_BYTES:,} bytes."
                    f"\n\nA manifold file may have b2 at most {MAX_B2:,}, and "
                    f"no direct-sum block of its form more than {MAX_BLOCK:,} rows.")
@click.version_option(version=__version__)
def main():
    """Exact invariants of symplectic surface counting: lattices, section
    profiles, pencils, linear systems, and matrix-model certification."""


# Shared by the commands that read a manifold file or decide a class.
_MANIFOLD = click.argument("manifold", type=click.Path(exists=True, dir_okay=False))
_CLASS = click.option("--class", "class_", required=True,
                      help="Divisor class, comma-separated integers.")


def _profile_options(command):
    """``--h0`` and ``--h2``: the section dimensions of D and of K - D."""
    command = click.option("--h2", required=True, type=_INTEGER,
                           help="Sections of the residual class K - D.")(command)
    return click.option("--h0", required=True, type=_INTEGER,
                        help="Sections of the class.")(command)


@main.command("manifold-check")
@_MANIFOLD
def manifold_check(manifold):
    """Validate a manifold file and report its characteristic numbers."""
    fields = _manifold_fields(manifold)
    try:
        x = FourManifoldLattice(**fields)
    except TypeError as exc:
        raise click.UsageError(f"{manifold}: {exc}")
    except ValueError as exc:
        return {"label": fields["label"], "valid": False, "error": str(exc)}, False
    return {
        "label": x.label,
        "valid": True,
        "b1": x.b1,
        "b2": x.b2,
        "b_plus": x.b_plus,
        "b_minus": x.b_minus,
        "euler": x.euler,
        "signature": x.signature,
        "two_e_plus_3sigma": x.two_e_plus_3sigma,
        "k_squared": x.k_squared,
        "chi_h": format_rational(x.chi_h),
        "even_form": is_even_form(x),
        "minimal": x.minimal,
        "citations": [
            "K.K = 2e + 3sigma",
            "K = diag(Q) mod 2 (characteristic vector)",
            "chi_h = (e + sigma)/4",
        ],
    }

@main.command("gromov")
@_MANIFOLD
@_CLASS
@_profile_options
def gromov_cmd(manifold, class_, h0, h2):
    """Surface count of a class from its two section dimensions."""
    x = _load_lattice(manifold)
    coords = _parse_class(class_, x.b2)
    profile = vanishing_profile(x, coords, h0, h2)
    r = profile.virtual_dim
    value = gromov_invariant(profile) if r >= 0 else 0
    return {
        "label": x.label,
        "class": list(coords),
        "h0": profile.h0,
        "h1": profile.h1,
        "h2": profile.h2,
        "chi": profile.chi,
        "virtual_dim": r,
        "invariant": value,
        "citations": [
            "chi = chi_h + (a.a - K.a)/2",
            "invariant = binom(r - h2, h0 - 1 - r); 0 when r < 0 or h0 = 0",
        ],
    }


@main.command("duality")
@_MANIFOLD
@_CLASS
@_profile_options
def duality_cmd(manifold, class_, h0, h2):
    """Check |count(D)| = |count(K - D)| for a section profile."""
    x = _load_lattice(manifold)
    coords = _parse_class(class_, x.b2)
    profile = vanishing_profile(x, coords, h0, h2)
    r = profile.virtual_dim
    if r < 0:
        raise click.UsageError(
            f"virtual dimension {r} is negative; the duality check needs r >= 0"
        )
    dual = serre_dual(profile)
    ok = duality_check(profile, r)
    return {
        "label": x.label,
        "class": list(coords),
        "profile": {"h0": profile.h0, "h1": profile.h1, "h2": profile.h2},
        "dual_profile": {"h0": dual.h0, "h1": dual.h1, "h2": dual.h2},
        "virtual_dim": r,
        "invariant": gromov_invariant(profile),
        "dual_invariant": gromov_invariant(dual),
        "magnitudes_equal": ok,
        "citations": [
            "dual section dims (h2, h1, h0) live on K - a",
            "|count(a)| = |count(K - a)| at equal virtual dimension",
        ],
    }, ok


@main.command("pencil")
@_MANIFOLD
@click.option("--k", required=True, type=_INTEGER,
              help="Multiple of the primitive symplectic class to use as fibre.")
@click.option("--class", "class_", default=None,
              help="Optional class whose fibre degrees to report.")
def pencil_cmd(manifold, k, class_):
    """Pencil numerology: fibre genus, base points, critical fibres."""
    x = _load_lattice(manifold)
    pencil = build_pencil(x, k)
    payload = {
        "label": x.label,
        "k": k,
        "fibre_class": list(pencil.fibre_class.coords),
        "genus": pencil.genus,
        "base_points": pencil.base_points,
        "critical_fibres": pencil.critical_fibres,
        "citations": [
            "2g - 2 = K.W + W.W",
            "delta = e + W.W + 4g - 4",
        ],
    }
    if class_ is not None:
        coords = _parse_class(class_, x.b2)
        r = fibre_degree(pencil, coords)
        resid = residual_fibre_degree(pencil, coords)
        payload["class"] = list(coords)
        payload["fibre_degree"] = r
        payload["residual_degree"] = resid
        payload["degree_sum"] = r + resid
        payload["citations"].append("degree(a) + degree(K - a) = 2g - 2")
    return payload


@main.command("count")
@_MANIFOLD
@_CLASS
def count_cmd(manifold, class_):
    """Decide a standard surface count from quoted hypotheses."""
    x = _load_lattice(manifold)
    coords = _parse_class(class_, x.b2)
    verdict = count_decision(x, coords)
    return {"label": x.label, "class": list(coords), **_record_payload(verdict),
            "citations": [verdict.reason]}


@main.command("bn")
@click.option("--g", "g", required=True, type=_INTEGER, help="Curve genus.")
@click.option("--r", "r", required=True, type=_INTEGER, help="System degree.")
@click.option("--s", "s", required=True, type=_INTEGER, help="System dimension.")
def bn_cmd(g, r, s):
    """Virtual dimension of degree-r, dimension-s systems on genus g."""
    from . import brill_noether

    query = brill_noether.BNQuery(g, r, s)
    return {
        "g": g,
        "r": r,
        "s": s,
        "rho": brill_noether.rho(query),
        "excess_codimension": brill_noether.eh_predicate(query),
        "citations": [
            "rho = g - (s+1)(g - r + s)",
            "excess codimension in moduli iff rho < -1",
        ],
    }


@main.command("aj-fibres")
@click.option("--g", "g", required=True, type=_INTEGER, help="Curve genus.")
@click.option("--r", "r", required=True, type=_INTEGER, help="Divisor degree.")
def aj_fibres_cmd(g, r):
    """Fibre dimensions of the degree-r divisor-to-line-bundle map."""
    from . import brill_noether

    prof = brill_noether.abel_jacobi_fibre_dims(g, r)
    return {
        "g": g,
        "r": r,
        **_record_payload(prof),
        "citations": [
            "generic fibre dimension r - g",
            "jump by one over the degree 2g - 2 - r symmetric product",
        ],
    }


@main.command("hilb")
@click.option("--r", "r", required=True, type=_INTEGER,
              help=f"Matrix size, 1 to {MAX_R}.")
@click.option("--samples", required=True, type=_INTEGER,
              help=f"Samples to certify, 1 to {MAX_SAMPLES}.")
@click.option("--seed", type=_INTEGER, default=DEFAULT_SEED, show_default=True,
              help="Base seed; sample i uses seed + i.")
@click.option("--stratum", type=click.Choice(STRATA), default="smooth",
              show_default=True, help="Stratum to sample.")
def hilb_cmd(r, samples, seed, stratum):
    """Certify the kernel dimension r^2 + 1 on sampled matrix models.

    The SYMPENCIL_WORKERS environment variable (default 1) sets the number
    of worker processes; at most the CPUs the process may use and at most
    --samples of them run. The report does not depend on it.
    """
    from . import hilb

    workers_text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = _parse_int(workers_text)
        if workers < 1:
            raise ValueError
    except ValueError:
        raise click.UsageError(
            f"{WORKERS_ENV}={workers_text!r} is not a positive integer"
        )
    report = hilb.certify_stratum(stratum, r, samples, seed=seed,
                                  workers=workers)
    payload = _record_payload(report)
    # Only a failed run names its samples, so passing reports keep their bytes.
    failing = payload.pop("failing_samples")
    if failing:
        payload["failing_samples"] = [
            dict(zip(("index", "seed", "kernel_dim"), sample)) for sample in failing]
    return {
        **payload,
        "seed": seed,
        "citations": [
            "kernel of (C1, C2, mu) -> (C1 B2 + B1 C2 - mu I, B2 C1 + C2 B1 - mu I) "
            "has dimension r^2 + 1 at every point",
        ],
    }, report.passed


@main.command("classify")
@_MANIFOLD
@click.option("--classes", "classes_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help=f"JSON file with an array of at most {MAX_CLASSES:,} "
                   "class vectors to decide.")
def classify_cmd(manifold, classes_path):
    """Run every applicable named check; exit 1 if any check fails."""
    from . import applications

    x = _load_lattice(manifold)
    classes = []
    if classes_path is not None:
        data = _load_json(classes_path)
        if isinstance(data, list) and len(data) > MAX_CLASSES:
            raise click.UsageError(f"{classes_path} holds {len(data):,} classes, "
                                   f"past the {MAX_CLASSES:,}-class limit")
        if not isinstance(data, list) or any(
            not isinstance(row, list)
            or any(not isinstance(v, int) or isinstance(v, bool) for v in row)
            for row in data
        ):
            raise click.UsageError(
                f"{classes_path} must hold a JSON array of integer arrays"
            )
        for row in data:
            if len(row) != x.b2:
                raise click.UsageError(
                    f"class {row} has {len(row)} coordinates, lattice rank is {x.b2}"
                )
        classes = [tuple(row) for row in data]
    reports = applications.run_all(x, classes)
    return ([_record_payload(rep) for rep in reports],
            all(rep.verdict != "fail" for rep in reports))


def run() -> None:
    """Run the command line as a one-shot process: the entry point of the
    ``sympencil`` script and of ``python -m sympencil.cli``.

    click's standalone mode always ends ``main`` with ``SystemExit`` and an
    ``int`` code. Then the standard streams are flushed (a stream is
    ``None`` when its descriptor was closed at start) and the process
    leaves through ``os._exit`` with that code, skipping the interpreter's
    teardown of modules and objects: ``atexit`` hooks do not fire and
    finalizers do not run. Any other ending (a non-``int`` code, an
    uncaught exception, or a flush that fails) leaves through the normal
    interpreter exit.
    """
    try:
        main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            raise exc from None
        os._exit(exc.code)


if __name__ == "__main__":
    run()
