"""Command-line front end.

Subcommands: regularity, slopes, witness, survey, crosscheck.  Reports
go to stdout.  Errors, dropped cache lines and skipped or failed survey
pairs go to stderr, written here: the library writes nothing there.
Exit codes: 0 success, 1 usage error, 2 mathematical inconsistency or a
survey pair that could not be computed, 3 witness search inconclusive
(and nothing worse happened).
"""

import argparse
import os
import sys

from .cache import ENGINES, CharpolyCache
from .dimensions import dim_cuspforms
from .errors import ConsistencyError, TraceBudgetExceeded
from .slopes import (HeckeContext, is_regular, regularity_weight_range, tp_slopes,
                     up_assembly, up_slopes_direct, witness_label)
from .survey import (COLUMNS, FORMATS, SurveyConfig, compute_pair, render_report,
                     run_survey)
from .traceforms import charpoly_from_traces, trace_feasible

CACHE_ENV = "HECKESLOPES_CACHE"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_INCONCLUSIVE = 3

# Largest dim S_k(Gamma_0(Np)) for which crosscheck verifies the slope
# assembly against a direct level-Np computation; beyond it only the
# trace-vs-modsym identity is checked.
DIRECT_DIM_CAP = 45

REGULARITY_COLUMNS = ("p", "N", "k", "dim", "slopes", "zero_count", "verdict", "j")
SLOPES_COLUMNS = ("p", "N", "k", "dim", "tp_slopes", "zero_count", "up_slopes",
                  "new_multiplicity")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # mathematical inconsistency, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _parse_int_set(text):
    """Parse "2,3,5" / "1-30" / "1-10,12" into a sorted tuple of ints."""
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range %r" % part)
            out.update(range(lo, hi + 1))
        else:
            out.add(int(part))
    if any(v < 1 for v in out):
        raise ValueError("levels and primes must be positive")
    return tuple(sorted(out))


def search_bound(text):
    """A witness search bound for --k-max: 0 (the default bound) or more.

    A negative bound would search nothing and report "inconclusive".
    """
    k_max = int(text)
    if k_max < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % k_max)
    return k_max


def _open_store(args):
    """The command's one charpoly store, from --cache, $HECKESLOPES_CACHE and --engine."""
    if args.cache is not None:
        path = args.cache or None  # --cache "" keeps the store in memory
    else:
        path = os.environ.get(CACHE_ENV) or None
    store = CharpolyCache(path, getattr(args, "engine", "modsym"))
    for lineno, reason in store.rejects:
        print("cache %s line %d dropped: %s" % (path, lineno, reason), file=sys.stderr)
    return store


def _add_cache(sub):
    sub.add_argument("--cache", default=None, metavar="PATH",
                     help="cache file (default: $%s if set)" % CACHE_ENV)


def _add_common(sub, fmt_default="text"):
    sub.add_argument("--engine", choices=ENGINES,
                     default="modsym", help="characteristic polynomial engine")
    _add_cache(sub)
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default=fmt_default)


def _print(text):
    sys.stdout.write(text)


# ----------------------------------------------------------------------
# regularity

def cmd_regularity(args):
    with _open_store(args) as store:
        verdict = is_regular(args.p, args.N, store)
    word = "regular" if verdict.regular else "irregular"
    if args.fmt != "text":
        _print(render_report(REGULARITY_COLUMNS, [
            (args.p, args.N, row.k, row.dim, row.slopes, row.zero_count, word, verdict.j)
            for row in verdict.table], args.fmt))
        return EXIT_OK
    _print("T_%d slopes on S_k(Gamma_0(%d)), weights %s\n"
           % (args.p, args.N, list(regularity_weight_range(args.p))))
    for row in verdict.table:
        note = " (vacuous)" if row.k % 2 else ""
        _print("  k=%-2d dim=%-3d slopes=%s zero_count=%d%s\n"
               % (row.k, row.dim, row.slopes, row.zero_count, note))
    _print("verdict: %s\n" % (word if verdict.regular else "irregular, j=%d" % verdict.j))
    return EXIT_OK


# ----------------------------------------------------------------------
# slopes

def cmd_slopes(args):
    rows = []
    with _open_store(args) as store:
        for k in range(2, args.k_max + 1, 2):
            ctx = HeckeContext(args.p, args.N, k)
            slopes, zeros = tp_slopes(ctx, store)
            asm = up_assembly(ctx, store)
            rows.append((args.p, args.N, k, dim_cuspforms(k, args.N), slopes, zeros,
                         asm.combined, asm.new_multiplicity))
    if args.fmt != "text":
        _print(render_report(SLOPES_COLUMNS, rows, args.fmt))
        return EXIT_OK
    _print("T_%d at level %d and assembled U_%d at level %d\n"
           % (args.p, args.N, args.p, args.N * args.p))
    for _, _, k, dim, slopes, zeros, up, new in rows:
        _print("  k=%-3d dim=%-3d T: %s zeros=%d | U: %s (new x%d)\n"
               % (k, dim, slopes, zeros, up, new))
    return EXIT_OK


# ----------------------------------------------------------------------
# witness

def cmd_witness(args):
    with _open_store(args) as store:
        row = compute_pair(args.p, args.N, args.k_max, store)
    _print(render_report(COLUMNS, [row], args.fmt))
    if row.witness_k is not None and args.fmt == "text":
        _print("minimal witness weight vs {j, j+(p-1)}: %s\n"
               % witness_label(row.p, row.j, row.witness_k))
    return EXIT_INCONCLUSIVE if row.status == "inconclusive" else EXIT_OK


# ----------------------------------------------------------------------
# survey

def cmd_survey(args):
    primes = _parse_int_set(args.p)
    levels = _parse_int_set(args.N)
    if args.workers < 1:
        raise ValueError("--workers must be at least 1, got %d" % args.workers)
    config = SurveyConfig(primes=primes, levels=levels, k_max=args.k_max,
                          workers=args.workers)
    with _open_store(args) as store:
        result = run_survey(config, store)
    for p, N in result.skipped:
        print("skipping (p=%d, N=%d): p divides N" % (p, N), file=sys.stderr)
    for error in result.errors:
        print("pair (p=%d, N=%d) failed: %s: %s" % error, file=sys.stderr)
    _print(render_report(COLUMNS, result.rows, args.fmt, result.errors))
    if result.errors:  # an inconsistency, or a pair that could not be computed
        return EXIT_INCONSISTENT
    if any(row.status == "inconclusive" for row in result.rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ----------------------------------------------------------------------
# crosscheck

def cmd_crosscheck(args):
    from .modsym import charpoly_cuspidal

    primes = _parse_int_set(args.p)
    levels = _parse_int_set(args.N)
    store = _open_store(args)
    failures = []
    for lineno, reason in store.rejects:
        failures.append("corrupt cache record at line %d (%s); reproduce: "
                        "inspect %s" % (lineno, reason, store.path))
    engines_checked = engines_skipped = direct_checked = direct_skipped = 0
    points = [(p, N, k)
              for p in primes for N in levels if N % p
              for k in range(2, args.k_max + 1, 2)]
    if not points:
        print("warning: empty grid, nothing to check", file=sys.stderr)
        if not failures:
            _print("crosscheck: PASS (trivial, empty grid)\n")
            return EXIT_OK
    try:
        for p, N, k in points:
            ctx = HeckeContext(p, N, k)
            if trace_feasible(k, N, p):
                g = charpoly_from_traces(k, N, p)
                fm = store.fetch_or_compute(
                    p, N, k, "modsym", lambda k=k, N=N, p=p: charpoly_cuspidal(k, N, p))
                engines_checked += 1
                if fm != g:
                    failures.append(
                        "engine mismatch at (k=%d, N=%d, p=%d): modsym %r vs trace %r; "
                        "reproduce: heckeslopes crosscheck --p %d --N %d --k-max %d"
                        % (k, N, p, list(fm.coeffs), list(g.coeffs), p, N, k))
            else:
                engines_skipped += 1
            if dim_cuspforms(k, N * p) <= args.direct_cap:
                asm = up_assembly(ctx, store)
                direct = up_slopes_direct(ctx, store)
                direct_checked += 1
                if asm.combined != direct:
                    failures.append(
                        "assembly mismatch at (k=%d, N=%d, p=%d): %r vs direct %r; "
                        "reproduce: heckeslopes slopes --p %d --N %d --k-max %d"
                        % (k, N, p, asm.combined, direct, p, N, k))
            else:
                direct_skipped += 1
    finally:
        if not store.rejects:  # strict mode keeps a damaged file as the evidence
            store.flush()
    _print("engine identity:   %d checked, %d beyond trace budget\n"
           % (engines_checked, engines_skipped))
    _print("assembly = direct: %d checked, %d beyond dim cap %d\n"
           % (direct_checked, direct_skipped, args.direct_cap))
    if failures:
        for failure in failures:
            _print("FAIL %s\n" % failure)
        _print("crosscheck: FAIL (%d)\n" % len(failures))
        return EXIT_INCONSISTENT
    _print("crosscheck: PASS\n")
    return EXIT_OK


# ----------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="heckeslopes",
                     description="Exact Hecke slope computations on Gamma_0 levels")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("regularity", help="low-weight T_p slope table and verdict")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_regularity)

    sp = sub.add_parser("slopes", help="T_p and assembled U_p slopes, weights 2..k-max")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--k-max", dest="k_max", type=int, default=12)
    _add_common(sp)
    sp.set_defaults(func=cmd_slopes)

    sp = sub.add_parser("witness", help="search for a U_p slope strictly in (0,1)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--k-max", dest="k_max", type=search_bound, default=0,
                    help="even search bound (default: max(50, j+2(p-1)))")
    _add_common(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("survey", help="regularity/witness report over a (p, N) grid")
    sp.add_argument("--p", required=True, help="primes, e.g. 2,3,5")
    sp.add_argument("--N", required=True, help="levels, e.g. 1-30 or 11,13")
    sp.add_argument("--k-max", dest="k_max", type=search_bound, default=0)
    sp.add_argument("--workers", type=int, default=1)
    _add_common(sp, fmt_default="csv")
    sp.set_defaults(func=cmd_survey)

    sp = sub.add_parser("crosscheck", help="trace vs modsym and assembly vs direct")
    sp.add_argument("--p", default="2,3,5,7,11,13")
    sp.add_argument("--N", default="1-14")
    sp.add_argument("--k-max", dest="k_max", type=int, default=16)
    sp.add_argument("--direct-cap", dest="direct_cap", type=int, default=DIRECT_DIM_CAP,
                    help="skip direct level-Np checks above this dimension")
    _add_cache(sp)
    sp.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConsistencyError, ArithmeticError) as exc:  # a failed exactness check
        print("inconsistency: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, TraceBudgetExceeded) as exc:  # bad input, or out of reach
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
