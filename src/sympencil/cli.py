"""Command-line front end: every operation behind one executable.

``main`` is the command table and the one dispatcher that parses a command
line with the standard library, calls its command and renders the report:
the payload, or ``(payload, passed)`` when a check can fail.  Output is
canonical JSON (sorted keys, compact separators, one trailing newline) or,
with ``--format text``, the same structure as key: value lines.  Exit
codes: 0 success, 1 a computed check failed, 2 bad input or usage (a
library ``ValueError`` and a result too long to print included), reported
as one ``Error: ...`` line on stderr in click's words.  A process imports
only what its command uses and leaves through :func:`run` without tearing
the interpreter down, so nothing a command runs may rely on interpreter
shutdown: no ``atexit`` hook, no finalizer, no file left open.
"""

from __future__ import annotations

import errno
import io
import json
import os
import sys

from . import __version__
from .catalog import format_rational, manifold_fields
from .gromov import duality_check, gromov_invariant, serre_dual, vanishing_profile
from .lattice import FourManifoldLattice, is_even_form, largest_block
from .pencil import build_pencil, count_decision, fibre_degree, residual_fibre_degree
from .record import Record
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
        raise ValueError("the result holds an integer with too many digits to print")


def _text_lines(payload, prefix: str = ""):
    if isinstance(payload, dict) or isinstance(payload, list) and any(
            isinstance(value, (dict, list)) for value in payload):
        items = sorted(payload.items()) if isinstance(payload, dict) else enumerate(payload)
        for key, value in items:
            yield from _text_lines(value, f"{prefix}{key}.")
    elif isinstance(payload, list):
        yield f"{prefix.rstrip('.')}: {', '.join(map(_text_value, payload))}"
    else:
        yield f"{prefix.rstrip('.')}: {_text_value(payload)}"


def _text_value(value) -> str:
    """A scalar as text; an unprintable string as its JSON literal, so that
    one value stays on one line and cannot forge another key's line."""
    if isinstance(value, str) and not value.isprintable():
        return json.dumps(value)
    return str(value)


def _parse_int(text: str) -> int:
    """An integer in the omega rule's form ``-?[0-9]+``, ASCII spaces around
    it allowed, else ``ValueError``; ``int()`` also takes ``"+1"``, ``"1_0"``
    and non-ASCII digits."""
    number = text.strip(" ")
    digits = number[1:] if number.startswith("-") else number
    try:
        if digits.isascii() and digits.isdigit():
            return int(number)
    except ValueError:  # past sys.get_int_max_str_digits()
        pass
    raise ValueError(f"{text!r} is not a valid integer.")


def _existing_file(path: str) -> str:
    """The path, once it names a readable file that is not a directory."""
    problem = ("does not exist" if not os.path.exists(path) else
               "is a directory" if os.path.isdir(path) else
               None if os.access(path, os.R_OK) else "is not readable")
    if problem:
        raise ValueError(f"File {path!r} {problem}.")
    return path


def _load_json(path: str):
    """The JSON value in the file, read no further than one byte past
    ``MAX_FILE_BYTES``, so a larger file or an endless stream costs no more."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    if len(data) > MAX_FILE_BYTES:
        raise ValueError(f"{path} is larger than the {MAX_FILE_BYTES:,}-byte file limit")
    try:
        # Decoded as a text-mode open() would, newlines translated, so a
        # decode or syntax error reports the same position.
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read")
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise ValueError(f"{path} holds an integer with too many digits")


def _manifold_fields(path: str) -> dict:
    """The constructor keywords of a manifold file, once its shape, its b2
    and its largest direct-sum block, read before any elimination, are
    within bounds."""
    data = _load_json(path)
    try:
        fields = manifold_fields(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
    form = fields["form"]
    if len(form) > MAX_B2:
        raise ValueError(f"{path} has b2 = {len(form):,}, past the b2 limit of {MAX_B2:,}")
    # No block has more rows than the form, so a smaller form is not scanned.
    block = largest_block(form) if len(form) > MAX_BLOCK else 0
    if block > MAX_BLOCK:
        raise ValueError(f"{path} has a direct-sum block of {block:,} rows, "
                          f"past the {MAX_BLOCK:,}-row block limit")
    return fields


def _load_lattice(path: str) -> FourManifoldLattice:
    fields = _manifold_fields(path)
    try:
        return FourManifoldLattice(**fields)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}")


def _record_payload(record) -> dict:
    """A record's fields by name, with tuples written as lists."""
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in zip(record._fields, record._values())}


def _parse_class(text: str, width: int) -> tuple[int, ...]:
    try:
        coords = tuple(_parse_int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"class {text!r} is not a comma-separated integer list")
    if len(coords) != width:
        raise ValueError(f"class has {len(coords)} coordinates, lattice rank is {width}")
    return coords


def manifold_check(manifold):
    """Validate a manifold file and report its characteristic numbers."""
    fields = _manifold_fields(manifold)
    try:
        x = FourManifoldLattice(**fields)
    except TypeError as exc:
        raise ValueError(f"{manifold}: {exc}")
    except ValueError as exc:
        return {"label": fields["label"], "valid": False, "error": str(exc)}, False
    numbers = ("label", "b1", "b2", "b_plus", "b_minus", "euler", "signature",
               "two_e_plus_3sigma", "k_squared", "minimal")
    return {
        **{name: getattr(x, name) for name in numbers},
        "valid": True,
        "chi_h": format_rational(x.chi_h),
        "even_form": is_even_form(x),
        "citations": ["K.K = 2e + 3sigma", "K = diag(Q) mod 2 (characteristic vector)",
                      "chi_h = (e + sigma)/4"],
    }


def gromov_cmd(manifold, class_, h0, h2):
    """Surface count of a class from its two section dimensions."""
    x = _load_lattice(manifold)
    coords = _parse_class(class_, x.b2)
    profile = vanishing_profile(x, coords, h0, h2)
    r = profile.virtual_dim
    return {
        "label": x.label,
        "class": list(coords),
        **{name: getattr(profile, name) for name in ("h0", "h1", "h2", "chi")},
        "virtual_dim": r,
        "invariant": gromov_invariant(profile) if r >= 0 else 0,
        "citations": ["chi = chi_h + (a.a - K.a)/2",
                      "invariant = binom(r - h2, h0 - 1 - r); 0 when r < 0 or h0 = 0"],
    }


def duality_cmd(manifold, class_, h0, h2):
    """Check |count(D)| = |count(K - D)| for a section profile."""
    x = _load_lattice(manifold)
    coords = _parse_class(class_, x.b2)
    profile = vanishing_profile(x, coords, h0, h2)
    r = profile.virtual_dim
    if r < 0:
        raise ValueError(
            f"virtual dimension {r} is negative; the duality check needs r >= 0")
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
        "citations": ["dual section dims (h2, h1, h0) live on K - a",
                      "|count(a)| = |count(K - a)| at equal virtual dimension"],
    }, ok


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
        "citations": ["2g - 2 = K.W + W.W", "delta = e + W.W + 4g - 4"],
    }
    if class_ is not None:
        coords = _parse_class(class_, x.b2)
        r = fibre_degree(pencil, coords)
        resid = residual_fibre_degree(pencil, coords)
        payload.update({"class": list(coords), "fibre_degree": r,
                        "residual_degree": resid, "degree_sum": r + resid})
        payload["citations"].append("degree(a) + degree(K - a) = 2g - 2")
    return payload


def count_cmd(manifold, class_):
    """Decide a standard surface count from quoted hypotheses."""
    x = _load_lattice(manifold)
    coords = _parse_class(class_, x.b2)
    verdict = count_decision(x, coords)
    return {"label": x.label, "class": list(coords), **_record_payload(verdict),
            "citations": [verdict.reason]}


def bn_cmd(g, r, s):
    """Virtual dimension of degree-r, dimension-s systems on genus g."""
    from . import brill_noether

    query = brill_noether.BNQuery(g, r, s)
    return {
        "g": g, "r": r, "s": s,
        "rho": brill_noether.rho(query),
        "excess_codimension": brill_noether.eh_predicate(query),
        "citations": ["rho = g - (s+1)(g - r + s)",
                      "excess codimension in moduli iff rho < -1"],
    }


def aj_fibres_cmd(g, r):
    """Fibre dimensions of the degree-r divisor-to-line-bundle map."""
    from . import brill_noether

    return {
        "g": g, "r": r,
        **_record_payload(brill_noether.abel_jacobi_fibre_dims(g, r)),
        "citations": ["generic fibre dimension r - g",
                      "jump by one over the degree 2g - 2 - r symmetric product"],
    }


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
        raise ValueError(f"{WORKERS_ENV}={workers_text!r} is not a positive integer")
    report = hilb.certify_stratum(stratum, r, samples, seed=seed, workers=workers)
    payload = _record_payload(report)
    # Only a failed run names its samples, so passing reports keep their bytes.
    failing = payload.pop("failing_samples")
    if failing:
        payload["failing_samples"] = [
            dict(zip(("index", "seed", "kernel_dim"), sample)) for sample in failing]
    return {
        **payload,
        "seed": seed,
        "citations": ["kernel of (C1, C2, mu) -> (C1 B2 + B1 C2 - mu I, "
                      "B2 C1 + C2 B1 - mu I) has dimension r^2 + 1 at every point"],
    }, report.passed


def classify_cmd(manifold, classes_path):
    """Run every applicable named check; exit 1 if any check fails."""
    from . import applications

    x = _load_lattice(manifold)
    classes = []
    if classes_path is not None:
        data = _load_json(classes_path)
        if isinstance(data, list) and len(data) > MAX_CLASSES:
            raise ValueError(f"{classes_path} holds {len(data):,} classes, "
                              f"past the {MAX_CLASSES:,}-class limit")
        if not isinstance(data, list) or any(
                not isinstance(row, list) or any(
                    not isinstance(v, int) or isinstance(v, bool) for v in row)
                for row in data):
            raise ValueError(f"{classes_path} must hold a JSON array of integer arrays")
        for row in data:
            if len(row) != x.b2:
                raise ValueError(
                    f"class {row} has {len(row)} coordinates, lattice rank is {x.b2}")
        classes = [tuple(row) for row in data]
    reports = applications.run_all(x, classes)
    return ([_record_payload(rep) for rep in reports],
            all(rep.verdict != "fail" for rep in reports))


# -- the command table and its dispatcher ------------------------------------

class _Choice(tuple):
    """An option kind: one of these names."""

    def __call__(self, value: str) -> str:
        if value not in self:
            raise ValueError(f"{value!r} is not one of {', '.join(map(repr, self))}.")
        return value


class _Option(Record):
    """``--flag`` or ``MANIFOLD``; the kind that converts its text or raises
    ``ValueError`` (None: a flag without a value); its default, ``...`` when
    it must be given; its help."""

    __slots__ = ("flag", "kind", "default", "help")


class _Command(Record):
    """A callback, whether a ``MANIFOLD`` path comes first, and its options."""

    __slots__ = ("callback", "manifold", "options")


_MANIFOLD = _Option("MANIFOLD", _existing_file, ..., "")
_CLASS = _Option("--class", str, ..., "Divisor class, comma-separated integers.")
_PROFILE = (_Option("--h0", _parse_int, ..., "Sections of the class."),
            _Option("--h2", _parse_int, ..., "Sections of the residual class K - D."))
_FORMAT = _Option("--format", _Choice(("text", "json")), "json", "Report as text or json.")
_HELP = _Option("--help", None, None, "Show this message and exit.")
_VERSION = _Option("--version", None, None, "Show the version and exit.")
_ABOUT = f"""Exact invariants of symplectic surface counting: lattices, section
profiles, pencils, linear systems, and matrix-model certification.

A JSON file read may hold at most {MAX_FILE_BYTES:,} bytes.

A manifold file may have b2 at most {MAX_B2:,}, and no direct-sum block of its form
more than {MAX_BLOCK:,} rows."""


def _echo(text: str, stream) -> None:
    if stream is not None:  # None when its descriptor was closed at start
        print(text, file=stream, flush=True)


def _parse(args, options, interspersed: bool):
    """Each option's value by flag, in the order first given, the last value
    winning; and the arguments after ``--`` or, unless interspersed, from the
    first positional one on, with the positional ones."""
    known = {option.flag: option for option in options}
    values, positional, args = {}, [], list(args)
    while args and (interspersed or not positional):
        token = args.pop(0)
        if token == "--":
            break
        if token[:1] != "-" or token == "-":
            positional.append(token)
            continue
        flag, eq, value = token.partition("=")
        option = known.get(flag)
        if option is None:  # as click, which tries "-xyz" as the short option "-x"
            raise ValueError(f"No such option {flag if token[1] == '-' else token[:2]!r}.")
        if option.kind is None and eq:
            raise ValueError(f"Option {flag!r} does not take a value.")
        if option.kind is not None and not (eq or args):
            raise ValueError(f"Option {flag!r} requires an argument.")
        values[flag] = True if option.kind is None else value if eq else args.pop(0)
    return values, positional + args


def _arguments(command: _Command, values: dict, positional: list) -> list:
    """The callback's arguments and the report format, checked in click's order:
    the values given, first given first, ``MANIFOLD``, defaults, extra arguments."""
    options = (_MANIFOLD,) * command.manifold + (*command.options, _FORMAT)
    options = {option.flag: option for option in options}
    if command.manifold and positional:
        values = {**values, "MANIFOLD": positional.pop(0)}
    done = {}
    for flag in (*values, *options):
        option = options[flag]
        if flag in done:
            continue
        if flag not in values and option.default is ...:
            raise ValueError(f"Missing {'argument' if option is _MANIFOLD else 'option'} "
                             f"{flag!r}.")
        try:
            done[flag] = option.kind(values[flag]) if flag in values else option.default
        except ValueError as exc:
            raise ValueError(f"Invalid value for {flag!r}: {exc}") from None
    if positional:
        raise ValueError(f"Got unexpected extra argument{'s' * (len(positional) > 1)}"
                         f" ({' '.join(positional)})")
    return [done[flag] for flag in options]


def _help(usage: str, text: str, options, commands=None) -> str:
    """A help page: usage, text, options and, for the program, commands."""
    import textwrap

    rows = [(o.flag, o.help + {...: "  [required]", None: ""}.get(
        o.default, f"  [default: {o.default}]")) for o in options]
    rows += [(name, command.callback.__doc__.split(".")[0] + ".")
             for name, command in (commands or {}).items()]
    width = max(len(left) for left, _ in rows)
    first, _, rest = text.strip().partition("\n")
    return "\n".join([f"Usage: {usage}", "", textwrap.indent(
        f"{first}\n{textwrap.dedent(rest)}", "  "), ""] + [
        f"  {left:<{width}}  {right}".rstrip() for left, right in rows])


class _Program(Record):
    """``commands`` maps each name to its ``_Command``; ``main(args,
    prog_name)``, called as ``click.testing.CliRunner`` calls a click group,
    runs one command line and ends with ``SystemExit``: 0, 1 (a check failed
    or stdout's reader has gone) or 2 (bad input or usage)."""

    __slots__ = ("name", "commands")

    def main(self, args=None, prog_name="sympencil", **extra):
        try:
            code = self._dispatch(prog_name, sys.argv[1:] if args is None else args)
        except ValueError as exc:
            _echo(f"Error: {exc}", sys.stderr)
            code = 2
        except KeyboardInterrupt:
            _echo("\nAborted!", sys.stderr)
            code = 1
        except OSError as exc:
            if exc.errno != errno.EPIPE:
                raise
            sys.stdout = sys.stderr = None  # the reader has gone: drop what is left
            code = 1
        sys.exit(code)

    __call__ = main

    def _dispatch(self, prog: str, args: list) -> int:
        values, rest = _parse(args, (_VERSION, _HELP), interspersed=False)
        if values:  # --version or --help, whichever comes first
            _echo(f"{prog}, version {__version__}" if next(iter(values)) == "--version"
                  else _help(f"{prog} [OPTIONS] COMMAND [ARGS]...", _ABOUT,
                             (_VERSION, _HELP), self.commands), sys.stdout)
            return 0
        if not rest:
            raise ValueError("Missing command.")
        name, *args = rest
        if name not in self.commands:
            raise ValueError(f"No such command {name!r}.")
        command = self.commands[name]
        options = (*command.options, _FORMAT, _HELP)
        values, positional = _parse(args, options, interspersed=True)
        if "--help" in values:
            usage = f"{prog} {name} [OPTIONS]" + " MANIFOLD" * command.manifold
            _echo(_help(usage, command.callback.__doc__, options), sys.stdout)
            return 0
        *arguments, fmt = _arguments(command, values, positional)
        report = command.callback(*arguments)
        payload, passed = report if isinstance(report, tuple) else (report, True)
        if isinstance(payload, dict):
            payload = {"command": name, **payload}
        _echo(_render(payload, fmt), sys.stdout)
        return 0 if passed else 1


_G = _Option("--g", _parse_int, ..., "Curve genus.")
main = _Program("main", {
    "manifold-check": _Command(manifold_check, True, ()),
    "gromov": _Command(gromov_cmd, True, (_CLASS, *_PROFILE)),
    "duality": _Command(duality_cmd, True, (_CLASS, *_PROFILE)),
    "pencil": _Command(pencil_cmd, True, (
        _Option("--k", _parse_int, ...,
                "Multiple of the primitive symplectic class to use as fibre."),
        _Option("--class", str, None, "Optional class whose fibre degrees to report."))),
    "count": _Command(count_cmd, True, (_CLASS,)),
    "bn": _Command(bn_cmd, False, (
        _G, _Option("--r", _parse_int, ..., "System degree."),
        _Option("--s", _parse_int, ..., "System dimension."))),
    "aj-fibres": _Command(aj_fibres_cmd, False, (
        _G, _Option("--r", _parse_int, ..., "Divisor degree."))),
    "hilb": _Command(hilb_cmd, False, (
        _Option("--r", _parse_int, ..., f"Matrix size, 1 to {MAX_R}."),
        _Option("--samples", _parse_int, ...,
                f"Samples to certify, 1 to {MAX_SAMPLES}."),
        _Option("--seed", _parse_int, DEFAULT_SEED, "Base seed; sample i uses seed + i."),
        _Option("--stratum", _Choice(STRATA), "smooth", f"Stratum: {', '.join(STRATA)}."))),
    "classify": _Command(classify_cmd, True, (
        _Option("--classes", _existing_file, None, f"JSON file with an array of at most "
                f"{MAX_CLASSES:,} class vectors to decide."),)),
})


def run() -> None:
    """The entry point of a process, as the ``sympencil`` script or ``python
    -m sympencil.cli``: once ``main`` ends with an ``int`` exit code, as it
    always does, flush the standard streams and leave through ``os._exit``,
    so no ``atexit`` hook or finalizer runs. Any other ending (a non-``int``
    code, an uncaught exception, a failed flush) exits as usual."""
    try:
        main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when its descriptor was closed
                    stream.flush()
        except OSError:
            raise exc from None
        os._exit(exc.code)


if __name__ == "__main__":
    run()
