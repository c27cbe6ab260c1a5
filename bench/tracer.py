"""Spans around the library's public functions, for the traced run only.

``Tracer.install`` replaces each target with a wrapper that records a span
(name, start, end, parent span, op id). A function is replaced in every
``sympencil`` module that holds it, because modules bind names with
``from ... import``; a method is replaced on its class. ``uninstall`` puts
the originals back. Spans stay in memory until ``metrics`` reduces them.

Counters that need the inputs (matrix density, pairing useful ratio, ...)
are computed after the wrapped call returns, inside a bookkeeping span
that counts as a child of the caller, so no layer's self time includes
them. Their cost still shows in ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

RANK_ONLY_CALLERS = {"is_stable", "verify_absolute_cokernel", "support_points"}
BOOKKEEPING = "trace.bookkeeping"
# Nonzero patterns of the last few forms paired; blown-up forms are built
# per query, so an unbounded cache would keep every one alive.
SPARSE_FORM_CACHE = 16
OP = "op"


def _rank_stats(t, args, out, dur, caller):
    rows = args[0].rows
    t.counts["rk.cells"] += len(rows) * len(rows[0])
    t.counts["rk.nnz"] += sum(1 for row in rows for v in row if v)
    rank, basis = out
    t.counts["rk.kernel_vectors"] += len(basis)
    bits = max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length())
         for vec in basis for v in vec),
        default=0,
    )
    t.counts["rk.kernel_bits_max"] = max(t.counts["rk.kernel_bits_max"], bits)
    if caller in RANK_ONLY_CALLERS:
        t.counts["rk.rank_only_s"] += dur
    if caller == "is_stable":
        t.counts["stable.rank_calls"] += 1
        if rank == len(rows):
            t.counts["stable.rank_increases"] += 1


def _pairing_stats(t, args, out, dur, caller):
    lattice, x, y = args[0], args[1], args[2]
    form = lattice.form
    cached = t.sparse_forms.get(id(form))
    if cached is None or cached[0] is not form:
        cached = (form, [{j for j, v in enumerate(row) if v} for row in form])
        t.sparse_forms[id(form)] = cached
        while len(t.sparse_forms) > SPARSE_FORM_CACHE:
            del t.sparse_forms[next(iter(t.sparse_forms))]
    rows = cached[1]
    nz_x = [i for i, v in enumerate(x) if v]
    nz_y = {j for j, v in enumerate(y) if v}
    t.counts["pair.visited"] += len(nz_x) * len(x)
    t.counts["pair.useful"] += sum(len(rows[i] & nz_y) for i in nz_x)


def _blow_up_stats(t, args, out, dur, caller):
    t.counts["blow_up.cells"] += (len(args[0].form) + args[1]) ** 2


def _signature_stats(t, args, out, dur, caller):
    t.counts["signature.b2_max"] = max(t.counts["signature.b2_max"], len(args[0]))


# (span name, targets as "module:function" or "module:Class.method", stats)
TARGETS = (
    ("exact.rank_and_kernel", ("sympencil.exact:rank_and_kernel",), _rank_stats),
    ("exact.matmul", ("sympencil.exact:RationalMatrix.matmul",), None),
    ("hilb.sample", (
        "sympencil.hilb:sample_smooth_stratum",
        "sympencil.hilb:sample_singular_stratum",
        "sympencil.hilb:sample_b1zero_stratum",
        "sympencil.hilb:sample_commuting_diagonal",
    ), None),
    ("hilb.is_stable", ("sympencil.hilb:is_stable",), None),
    ("hilb.differential_matrix", (
        "sympencil.hilb:differential_matrix",
        "sympencil.hilb:absolute_commutator_differential",
    ), None),
    ("lattice.pairing", ("sympencil.lattice:FourManifoldLattice.pairing",),
     _pairing_stats),
    ("lattice.blow_up", ("sympencil.lattice:blow_up",), _blow_up_stats),
    ("lattice.signature", ("sympencil.lattice:signature_of_symmetric",),
     _signature_stats),
    ("lattice.construct", ("sympencil.lattice:FourManifoldLattice.__init__",), None),
    ("catalog.lattice_from_dict", ("sympencil.catalog:lattice_from_dict",), None),
    ("gromov.profile", ("sympencil.gromov:CohomologyProfile.__post_init__",), None),
    ("gromov.duality_check", ("sympencil.gromov:duality_check",), None),
    ("pencil.build_pencil", ("sympencil.pencil:build_pencil",), None),
    ("pencil.count_decision", ("sympencil.pencil:count_decision",), None),
    ("pencil.fibre_degree_blowup_route",
     ("sympencil.pencil:fibre_degree_blowup_route",), None),
    ("applications.run_all", ("sympencil.applications:run_all",), None),
)

# Spans whose call count is reported next to their self time.
COUNTED = (
    "exact.rank_and_kernel", "exact.matmul", "hilb.sample", "hilb.is_stable",
    "hilb.differential_matrix", "lattice.pairing", "lattice.blow_up",
    "lattice.signature",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = None
        self.counts = defaultdict(float)
        self.sparse_forms: dict = {}
        self.problems: set[str] = set()
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def run_op(self, op_id, fn):
        """Call fn as op ``op_id`` under a root span and return its result."""
        self.op = op_id
        rec = [OP, 0.0, 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn()
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, stats):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            caller = sys._getframe(1).f_code.co_name if stats else None
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if stats is not None:
                start = perf_counter()
                try:
                    stats(tracer, args, out, rec[2] - rec[1], caller)
                except (AttributeError, TypeError, IndexError, ValueError) as exc:
                    tracer.problems.add(f"{name} counters: {exc!r}")
                spans.append([BOOKKEEPING, start, perf_counter(), parent, tracer.op])
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        # The CLI binds library names too; import it so its bindings exist.
        importlib.import_module("sympencil.cli")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "sympencil" or name.startswith("sympencil."))
        ]
        for span, targets, stats in TARGETS:
            for target in targets:
                modname, _, attr = target.partition(":")
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    orig = vars(cls).get(meth) if cls is not None else None
                    if orig is None:
                        self.problems.add(f"no {target}")
                        continue
                    setattr(cls, meth, self._wrap(span, orig, stats))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.problems.add(f"no {target}")
                    continue
                wrapped = self._wrap(span, orig, stats)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- reduction -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            self_ms[name] += (end - start - child[i]) * 1000.0
            calls[name] += 1
        out = {}
        for span, _, _ in TARGETS:
            out[f"{span}.self_ms"] = self_ms[span]
        for span in COUNTED:
            out[f"{span}.calls"] = calls[span]
        c = self.counts
        out["exact.rank_and_kernel.density"] = _ratio(c["rk.nnz"], c["rk.cells"])
        out["exact.rank_and_kernel.kernel_vectors"] = c["rk.kernel_vectors"]
        out["exact.rank_and_kernel.kernel_bits_max"] = c["rk.kernel_bits_max"]
        out["exact.rank_and_kernel.rank_only_ms"] = c["rk.rank_only_s"] * 1000.0
        out["hilb.is_stable.useful_ratio"] = _ratio(
            c["stable.rank_increases"], c["stable.rank_calls"])
        out["lattice.pairing.useful_ratio"] = _ratio(
            c["pair.useful"], c["pair.visited"])
        out["lattice.blow_up.cells"] = c["blow_up.cells"]
        out["lattice.signature.b2_max"] = c["signature.b2_max"]
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
