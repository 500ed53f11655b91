"""Run the heckeslopes CLI with spans around the public entry points of each module.

Usage: python3 perfbench/traced_cli.py STATS_JSON CLI_ARG...

The spans are recorded from outside the program: each traced name is
replaced where its caller looks it up (modsym and slopes import by name,
methods are looked up on their class).  Nothing is written to stdout, so
the report bytes and the exit code are those of the CLI itself.  At exit
the per-layer totals are written to STATS_JSON:

  seconds   {layer: [total seconds, self seconds, calls]}
  counts    {counter: value}
  pair_s    duration of every compute_pair call, in call order

A layer's self time is its span time minus the time of its child spans.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

from heckeslopes import cache, cli, linalg, modsym, slopes, survey, traceforms


class Tracer:
    def __init__(self):
        self.stack = []  # child seconds accumulated by each open span
        self.seconds = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts = Counter()
        self.maxima = Counter()
        self.pair_s = []
        self.spaces = set()

    def span(self, name, fn, durations=None):
        """fn wrapped so that every call records a span named name.

        durations, if given, also receives every call's duration.
        """
        stack, totals = self.stack, self.seconds[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += elapsed
                totals[1] += elapsed - frame[0]
                totals[2] += 1
                if durations is not None:
                    durations.append(elapsed)

        return traced

    def after(self, fn, record):
        """fn wrapped so that record(result, *args) sees every successful call."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(result, *args)
            return result

        return counted

    def install(self):
        count, maxima = self.counts, self.maxima

        def space_built(space, k, M):
            count["modsym.spaces_built"] += 1
            count["modsym.quotient_dim_sum"] += space.quotient_dim
            self.spaces.add((k, M))

        def hecke_done(matrix, space, n):
            count["modsym.hecke_matrices"] += 1

        def merel_listed(family, n):
            count["modsym.merel_size_sum"] += len(family)

        def charpoly_done(poly, matrix):
            maxima["exact.charpoly_dim_max"] = max(maxima["exact.charpoly_dim_max"], len(matrix))
            bits = max(abs(c).bit_length() for c in poly.coeffs)
            maxima["exact.coeff_bits_max"] = max(maxima["exact.coeff_bits_max"], bits)

        def sieve_built(_, table, limit):
            maxima["traceforms.sieve_limit"] = max(maxima["traceforms.sieve_limit"], limit)

        def trace_done(*_):
            count["traceforms.trace_tn_calls"] += 1

        def feasibility(feasible, *_):
            if not feasible:
                count["traceforms.refusals"] += 1

        def loaded(_, store):
            count["cache.rejects"] += len(store.rejects)

        def flushed(_, store):
            if store.path is not None:
                count["cache.bytes_written"] += os.path.getsize(store.path)

        orig_fetch = cache.CharpolyCache.fetch_or_compute

        @functools.wraps(orig_fetch)
        def fetch_or_compute(store, *args):
            hits = store.hits
            result = orig_fetch(store, *args)
            count["cache.hits" if store.hits > hits else "cache.misses"] += 1
            return result

        space_cls = modsym.PlusQuotient
        space_cls.hecke_matrix = self.after(
            self.span("modsym.hecke", space_cls.hecke_matrix), hecke_done)
        modsym.PlusQuotient = self.after(self.span("modsym.space", space_cls), space_built)
        modsym.P1List = self.span("modsym.p1", modsym.P1List)
        modsym.merel_family = self.after(modsym.merel_family, merel_listed)
        linalg.SparseRREF.add_row = self.span("linalg.sparse_rref", linalg.SparseRREF.add_row)
        modsym.kernel_basis = self.span("linalg.kernel", modsym.kernel_basis)
        solver_cls = modsym.SpanSolver
        solver_cls.solve = self.span("linalg.span_solve", solver_cls.solve)
        modsym.SpanSolver = self.span("linalg.span_solve", solver_cls)
        linalg.charpoly_monic = self.span("linalg.charpoly", linalg.charpoly_monic)
        modsym.inverse_charpoly = self.after(
            self.span("exact.charpoly", modsym.inverse_charpoly), charpoly_done)
        slopes.newton_slopes = self.span("exact.newton", slopes.newton_slopes)
        table_cls = traceforms.ClassNumberTable
        table_cls._build = self.after(self.span("traceforms.sieve", table_cls._build), sieve_built)
        traceforms.trace_tn = self.after(self.span("traceforms.trace_tn", traceforms.trace_tn),
                                         trace_done)
        from_traces = self.span("traceforms.newton_identities", traceforms.charpoly_from_traces)
        slopes.charpoly_from_traces = cli.charpoly_from_traces = from_traces
        cli.trace_feasible = self.after(cli.trace_feasible, feasibility)
        pair = self.span("survey.pair", survey.compute_pair, self.pair_s)
        survey.compute_pair = cli.compute_pair = pair
        store_cls = cache.CharpolyCache
        store_cls.load = self.after(self.span("cache.load", store_cls.load), loaded)
        store_cls.flush = self.after(self.span("cache.flush", store_cls.flush), flushed)
        store_cls.fetch_or_compute = fetch_or_compute

    def stats(self):
        counts = dict(self.counts)
        counts.update(self.maxima)
        counts["modsym.spaces_distinct"] = len(self.spaces)
        return {"seconds": dict(self.seconds), "counts": counts, "pair_s": self.pair_s}


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="ascii") as fh:
            json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
