"""Span tracing of momentflow's modules from outside, for the traced run.

:func:`install` replaces public functions and methods of each module with
timing wrappers, under every name through which callers look them up (the
defining module, and ``momentflow.cli`` for the names it imports).  Spans
(name, start, end, parent, operation id) stay in memory; the workload
process writes them out when it ends.  :func:`layer_metrics` reduces the
spans of the timed operations to the per-layer metrics that
BENCHMARK.json declares (all but ``bench.trace_overhead_pct``, which run.py
adds).  ``bench.span_cost_pct`` bounds the cost of tracing from inside one
process: the spans of the timed operations times the measured cost of one
span, as a share of their traced time.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """Span recorder.  Spans are recorded only while ``op`` is not None."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, extra]
        self.stack = []
        self.op = None

    def wrap(self, name, fn, extra=None, result=None):
        """Wrap fn in a span.  ``extra(args, value)`` adds a number to the
        span; ``result(value)`` may replace the return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), None, parent, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                value = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if extra is not None:
                span[5] = extra(args, value)
            return result(value) if result is not None else value

        return traced

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span;
        ``parent`` is the line number of the parent span, counted from 0
        after the header."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "extra"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_terms(system):
    return sum(1 for var in system.variables for _ in system.rhs[var].terms())


def install(tracer):
    """Patch every traced name; returns nothing, the patches last for the
    life of the process."""
    from momentflow import adiabatic, cli, dynamics, moment_algebra, oracle, states
    from momentflow import hamiltonian as ham

    def patch(owners, attr, name, **kw):
        fn = getattr(owners[0], attr)
        traced = tracer.wrap(name, fn, **kw)
        for owner in owners:
            setattr(owner, attr, traced)

    patch([ham, cli], "expand_quantum_hamiltonian", "hamiltonian.expand")
    patch([ham, cli], "generate_eom", "hamiltonian.eom")
    # the compiled RHS is a closure: wrap each one as compile returns it,
    # outside the compile span; the span carries the system's term count
    patch([ham.EquationSystem], "compile", "hamiltonian.compile",
          extra=lambda args, rhs: _count_terms(args[0]),
          result=lambda rhs: tracer.wrap("hamiltonian.rhs", rhs))
    patch([ham.EquationSystem], "listing_json", "hamiltonian.listing")
    patch([dynamics, cli], "integrate", "dynamics.integrate")
    patch([cli], "_write_trajectory", "cli.write")
    patch([oracle.FockSpace], "weyl", "oracle.weyl")
    patch([oracle], "weyl_op", "oracle.weyl_op")
    patch([oracle], "moments_of", "oracle.moments_of")
    patch([oracle], "bracket_oracle", "oracle.bracket_oracle")
    patch([moment_algebra, cli], "bracket_moments", "moment_algebra.bracket_moments")
    patch([moment_algebra.MomentPolynomial], "evaluate", "moment_algebra.evaluate")
    patch([oracle.Propagator], "__init__", "oracle.propagator")
    patch([oracle.Propagator], "__call__", "oracle.propagate")
    patch([adiabatic, cli], "solve_effective", "adiabatic.solve")
    patch([states], "rho_matrix", "states.rho_matrix", extra=lambda args, rho: rho.nbytes)


def span_cost_s():
    """Seconds that one traced call adds to a direct one, timed on a no-op
    in this process (best of five rounds of 10,000 calls), so that it does
    not depend on how fast the machine runs from one process to the next."""
    calls, repeats = 10000, 5

    def noop():
        return None

    scratch = Tracer()
    scratch.op = 0
    traced = scratch.wrap("noop", noop)
    best = {}
    for fn in (noop, traced) * repeats:
        scratch.spans.clear()
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        dt = time.perf_counter() - t
        best[fn] = min(best.get(fn, dt), dt)
    return (best[traced] - best[noop]) / calls


def layer_metrics(tracer, n_ops, op_s, import_s):
    """Per-operation layer figures over the spans of n_ops timed operations
    that took op_s seconds together.

    Times are sums of span durations divided by n_ops; a layer's self time
    subtracts its child spans.  A layer the workload never calls reads 0.
    """
    spans = tracer.spans
    total = {}
    count = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if parent is not None:
            child_time[parent] += end - start
    self_integrate = sum(
        (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if s[0] == "dynamics.integrate"
    )
    weyl_builds = sum(
        1 for s in spans if s[0] == "oracle.weyl_op" and s[3] is not None
        and spans[s[3]][0] == "oracle.weyl"
    )
    terms = sum(s[5] for s in spans if s[0] == "hamiltonian.compile")
    rho_bytes = sum(s[5] for s in spans if s[0] == "states.rho_matrix")

    def ms(*names):
        return sum(total.get(name, 0.0) for name in names) * 1e3 / n_ops

    def per_op(name):
        return count.get(name, 0) / n_ops

    rhs_calls = count.get("hamiltonian.rhs", 0)
    return {
        "hamiltonian.rhs_us": total["hamiltonian.rhs"] * 1e6 / rhs_calls if rhs_calls else 0.0,
        "hamiltonian.rhs_calls": per_op("hamiltonian.rhs"),
        "hamiltonian.rhs_terms": terms / n_ops,
        "hamiltonian.eom_ms": ms("hamiltonian.eom"),
        "hamiltonian.expand_ms": ms("hamiltonian.expand"),
        "hamiltonian.compile_ms": ms("hamiltonian.compile"),
        "hamiltonian.listing_ms": ms("hamiltonian.listing"),
        "dynamics.integrate_self_ms": self_integrate * 1e3 / n_ops,
        "cli.write_ms": ms("cli.write"),
        "oracle.weyl_ms": ms("oracle.weyl"),
        "oracle.weyl_builds": weyl_builds / n_ops,
        "oracle.weyl_op_calls": per_op("oracle.weyl_op"),
        "oracle.moments_of_ms": ms("oracle.moments_of"),
        "oracle.bracket_oracle_ms": ms("oracle.bracket_oracle"),
        "oracle.bracket_oracle_calls": per_op("oracle.bracket_oracle"),
        "moment_algebra.bracket_eval_ms": ms("moment_algebra.bracket_moments",
                                             "moment_algebra.evaluate"),
        "moment_algebra.bracket_moments_calls": per_op("moment_algebra.bracket_moments"),
        "oracle.propagate_ms": ms("oracle.propagator", "oracle.propagate"),
        "adiabatic.solve_ms": ms("adiabatic.solve"),
        "states.rho_matrix_ms": ms("states.rho_matrix"),
        "states.rho_bytes": rho_bytes / n_ops,
        "setup.import_s": import_s,
        "bench.span_cost_pct": 100.0 * span_cost_s() * len(spans) / op_s,
    }
