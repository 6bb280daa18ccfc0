"""Command-line front end.

Data goes to stdout (or the --out file) as CSV; diagnostics go to stderr.
Exit codes: 0 success, 1 validation or usage failure, 2 route
disagreement, 3 I/O or parse failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import json
import os
import sys
from pathlib import Path

# only the graph layer loads with the module, and it needs no numpy: each
# command imports the layers it runs, so that stats and primes start on the
# standard library alone, and numpy loads where an array is built
from .errors import CONTRACT, GraphFormatError, GraphValidationError, ResourceCapError
from .graph import WeightedGraph, _load_document, graph_stats, parse_graph, serialize_graph
from .route_table import ROUTES

MAX_ORDER = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; that code means route disagreement
    here, so usage problems are remapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parse_args keeps no
    state from one call to the next."""
    p = _Parser(prog="zetagraph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_order(sp, default=12):
        sp.add_argument("--order", type=int, default=default, metavar="M",
                        help=f"truncation order, 1..{MAX_ORDER} (default {default})")

    sp = sub.add_parser("coeffs", help="reciprocal zeta series by one route")
    sp.add_argument("file")
    add_order(sp)
    sp.add_argument("--route", default="fredholm", choices=["oracle", *ROUTES])
    sp.add_argument("--variant", default=None,
                    help="; ".join(f"{name}: {'|'.join(rule.variants)}"
                                   for name, rule in ROUTES.items() if rule.variants))

    sp = sub.add_parser("check", help="cross-validate all applicable routes")
    sp.add_argument("file")
    add_order(sp)
    sp.add_argument("--tol", type=float, default=CONTRACT)
    sp.add_argument("--experimental", action="store_true",
                    help="include the partial-product route for asymmetric flag sets")

    sp = sub.add_parser("primes", help="cycle classes up to a length bound")
    sp.add_argument("file")
    sp.add_argument("--max-len", type=int, default=12, metavar="L")

    sp = sub.add_parser("poles", help="poles of the zeta function")
    sp.add_argument("file")

    sp = sub.add_parser("lfun", help="L-function of the file's local system")
    sp.add_argument("file")
    add_order(sp)
    sp.add_argument("--route", default="determinant", choices=["oracle", "determinant"])

    sp = sub.add_parser("family", help="materialize or study a built-in family")
    sp.add_argument("--name", required=True)
    sp.add_argument("--r", type=float, required=True)
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--epsilon", type=float, default=1e-3,
                     help="truncate at the smallest K with tail weight <= epsilon "
                          "(default 1e-3)")
    grp.add_argument("--blocks", type=int, default=None, metavar="K",
                     help="truncate at block K exactly")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write the truncated graph file here")
    sp.add_argument("--study", type=int, default=None, metavar="KMAX",
                    help="emit coefficient-delta CSV for truncations 0..KMAX")
    add_order(sp)

    sp = sub.add_parser("stats", help="structural statistics of a graph file")
    sp.add_argument("file")
    return p


def _read_graph(path: str) -> tuple[WeightedGraph, dict]:
    """The graph of the file and the document parse_graph loaded it from."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from None
    return parse_graph(text), _load_document(text)


def _check_order(M: int) -> None:
    if not (1 <= M <= MAX_ORDER):
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {M}")


def _utf8_stdout() -> None:
    """Write stdout as UTF-8 whatever the locale, as graph files are read, so
    that a vertex name prints everywhere; a stream with no encoding of its
    own, such as StringIO, is left as it is."""
    out = sys.stdout
    if isinstance(out, io.TextIOWrapper) and codecs.lookup(out.encoding).name != "utf-8":
        out.reconfigure(encoding="utf-8")


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _fmt(v: float) -> str:
    """A float as every CSV writer prints it: its repr, with -0.0 as 0.0."""
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return repr(v)


def _name_quoting(g: WeightedGraph):
    """RFC 4180 quoting for the CSV fields built from g's vertex names: a
    function that wraps a field in double quotes and doubles the inner ones
    where some name holds a comma, a double quote, CR or LF, else None.  It
    is decided once per graph, so that no row is scanned."""
    if any(c in x for x in g.vertices for c in ',"\r\n'):
        return lambda text: '"' + text.replace('"', '""') + '"'
    return None


def _series_lines(s) -> list[str]:
    return ["n,re,im", *(f"{n},{_fmt(z.real)},{_fmt(z.imag)}" for n, z in enumerate(s.c))]


def _cmd_coeffs(args) -> int:
    from .routes import route_series

    g, _ = _read_graph(args.file)
    _check_order(args.order)
    _emit(_series_lines(route_series(args.route, g, args.order, variant=args.variant)))
    return 0


def _cmd_check(args) -> int:
    from .routes import cross_validate

    g, _ = _read_graph(args.file)
    _check_order(args.order)
    report = cross_validate(g, args.order, include_experimental=args.experimental,
                            tol=args.tol)
    for flag in report.flags:
        print(f"note: {flag}", file=sys.stderr)
    for route, message in report.refused:
        print(f"note: {route} refused: {message}", file=sys.stderr)
    if not report.pairs:
        raise ArithmeticError("fewer than two series left to compare")
    lines = ["routeA,routeB,max_dev,verdict"]
    lines += [f"{p.route_a},{p.route_b},{p.max_dev!r},{'agree' if p.agree else 'disagree'}"
              for p in report.pairs]
    _emit(lines)
    return 0 if report.all_agree else 2


def _cmd_primes(args) -> int:
    from .cycles import edge_sequence_label, prime_cycles

    g, _ = _read_graph(args.file)
    if args.max_len < 1:
        raise ValueError("max-len must be >= 1")
    # one label table: each oriented edge's edge_sequence_label, formatted
    # once, and the is_prime column; no row is scanned for quoting
    labels = {e: edge_sequence_label((e,)) for e in g.oriented_edges()}
    flags = ("false", "true")
    join = "|".join
    if quote := _name_quoting(g):
        join = lambda sequence: quote("|".join(sequence))
    lines = ["length,weight,primitive_length,is_prime,edge_sequence"]
    lines += [f"{n},{_fmt(w)},{p},{flags[prime]},{join(map(labels.__getitem__, edges))}"
              for edges, n, w, p, prime, _ in prime_cycles(g, args.max_len)]
    _emit(lines)
    return 0


def _cmd_poles(args) -> int:
    from .routes import spectrum_poles

    g, _ = _read_graph(args.file)
    lines = ["re,im,multiplicity"]
    lines += [f"{_fmt(p.real)},{_fmt(p.imag)},{mult}" for p, mult in spectrum_poles(g)]
    _emit(lines)
    return 0


def _cmd_lfun(args) -> int:
    from .twist import lfunction, load_local_system

    g, doc = _read_graph(args.file)
    _check_order(args.order)
    system = load_local_system(doc, g)
    if system is None:
        raise ValueError("graph file has no local_system block")
    _emit(_series_lines(lfunction(g, system, args.order, route=args.route)))
    return 0


def _cmd_family(args) -> int:
    from .families import convergence_study, make_source, truncation_depth

    source = make_source(args.name, args.r)
    _check_order(args.order)
    if args.study is None and args.out is None:
        raise ValueError("family needs --out FILE, --study KMAX, or both")
    # the study runs first so that invalid study arguments leave no --out file
    rows = None if args.study is None else convergence_study(source, args.study, args.order)
    if args.out is not None:
        K = truncation_depth(source, args.epsilon) if args.blocks is None else args.blocks
        graph, tail = source.block(K), source.tail_weight(K)
        Path(args.out).write_text(serialize_graph(graph) + "\n")
        print(f"wrote {args.out}: {len(graph.vertices)} vertices, tail weight {tail!r}, "
              f"blocks 0..{K}", file=sys.stderr)
    if rows is not None:
        _emit(["k,n,delta", *(f"{k},{n},{_fmt(delta)}" for k, n, delta in rows)])
    return 0


def _cmd_stats(args) -> int:
    g, _ = _read_graph(args.file)
    st = graph_stats(g)
    lines = ["key,value"]
    lines.append(f"vertex_count,{st.vertex_count}")
    lines.append(f"unoriented_edge_count,{st.edge_count}")
    lines.append(f"oriented_edge_count,{2 * st.edge_count}")
    lines.append(f"euler_number,{st.euler_number}")
    lines.append(f"total_weight,{_fmt(st.total_weight)}")
    lines.append(f"valency_bound,{st.valency_bound}")
    lines.append(f"girth_lower_bound,{st.girth_lower_bound}")
    lines.append(f"backtrack_flag_count,{len(g.backtrack)}")
    sym = "true" if (g.backtrack and g.has_symmetric_backtrack()) else (
        "empty" if not g.backtrack else "false")
    lines.append(f"backtrack_symmetric,{sym}")
    quote = _name_quoting(g) or str
    for pair in sorted(st.W_per_edge, key=lambda s: sorted(s)):
        u, v = sorted(pair)
        lines.append(f"{quote(f'roundtrip_weight[{u}-{v}]')},{_fmt(st.W_per_edge[pair])}")
    _emit(lines)
    return 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "check": _cmd_check,
    "primes": _cmd_primes,
    "poles": _cmd_poles,
    "lfun": _cmd_lfun,
    "family": _cmd_family,
    "stats": _cmd_stats,
}

# the commands that build no array and so run no BLAS: they never open
# OpenBLAS, and ZETAGRAPH_THREADS is validated for them but not applied
_NO_BLAS = frozenset({"stats", "primes"})


def _thread_cap() -> int | None:
    """The BLAS thread count that ZETAGRAPH_THREADS asks for: one when it is
    unset, so that the printed bytes do not depend on the BLAS thread count;
    n for n >= 1; None for 0, which leaves BLAS as the environment set it.
    main reads it for every command, so a bad value exits 1 everywhere, and
    applies it through blas only for the commands outside _NO_BLAS."""
    raw = os.environ.get("ZETAGRAPH_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"ZETAGRAPH_THREADS must be a nonnegative integer, got {raw!r}")
    if value < 0:
        raise ValueError(f"ZETAGRAPH_THREADS must be >= 0, got {value}")
    return value or None


def main(argv=None) -> int:
    _utf8_stdout()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = _thread_cap()
        if threads is not None and args.command not in _NO_BLAS:
            from . import blas

            if openblas := blas.threads():
                openblas[1](threads)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except GraphValidationError as exc:
        for code, msg in exc.report.entries:
            print(f"invalid graph [{code}]: {msg}", file=sys.stderr)
        return 1
    except (GraphFormatError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
