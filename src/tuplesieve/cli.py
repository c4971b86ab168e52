"""Command-line front end: a thin layer over `apps`.

Subcommands: search (generic pattern search), twins, quads, chains.
Each hands every flag to `apps` through `_config_kw` and writes tuples
through the one sink in `_run`: one line per tuple, `x f_1 ... f_k` in
decimal, sorted by x unless --unsorted, to --out or else stdout
(censuses list tuples only with --out or --unsorted).  No run keeps a
list of x values: the lines are the listing.  --out streams the lines
to the file as found and sorts it once the run completes.  --checkpoint
writes its file after every round; a resumed run cuts the --out file
back to the length its checkpoint recorded, refusing a shorter file,
and appends from there.  Then comes a `count=` summary; censuses add
`sum=`.  Exit status is 0 on success, 2 on configuration errors (a flag
the subcommand cannot honour, or an --out or --checkpoint path it
cannot write, found before the search), 3 when no certifier covers a
value (`TableCapacityError`), 141 when stdout closes.
"""

import argparse
import os
import sys

from .apps import chain_search, quads, search, smallest_chain, twins
from .pattern import PatternError, parse_pattern
from .primality import TableCapacityError
from .plan import PlanError
from .search import CheckpointError
from .wheel import WheelError


def prime_list(text):
    """The integers of --wheel's comma-separated list; the search checks them."""
    return tuple(int(p) for p in text.split(","))


def _add_search_options(p, with_pattern=True):
    if with_pattern:
        p.add_argument("--pattern", required=True,
                       help="comma-separated forms, e.g. 'x,x+2,x+6,x+8' or '6x+1,12x+1,18x+1'")
        p.add_argument("--n", required=True, type=int, help="search bound: max form value")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--sieve-bound", type=int, metavar="B",
                       help="sieve every segment to B, taken literally but at most "
                            "sqrt(n), where no prime test is left")
    group.add_argument("--space-exp", type=float, metavar="C",
                       help="space exponent c > 2; sieve bound becomes 2^floor(log2(n)/c)")
    p.add_argument("--wheel", type=prime_list, metavar="P,...",
                   help="the wheel's primes, e.g. 2,3,5,7 (default: primes 2, 3, 5, ... "
                        "while the segment bytes each saves over the x range cost more than "
                        "its sieve rows, both priced in ns, and until segments hold at most "
                        "2^22 bytes)")
    p.add_argument("--workers", type=int, default=1, metavar="NU",
                   help="sieve the residues in NU processes (at most the CPU count)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="write this checkpoint file after every round, and resume from it")
    p.add_argument("--unsorted", action="store_true",
                   help="stream tuples in discovery order instead of sorting")
    p.add_argument("--out", metavar="FILE", help="write tuple lines here instead of stdout")


def _config_kw(args):
    """The SearchConfig fields and checkpoint options every search subcommand forwards."""
    kw = dict(
        nu=args.workers,
        sieve_bound=args.sieve_bound,
        space_exp=args.space_exp,
        wheel=args.wheel,
    )
    if args.checkpoint is not None:
        kw["checkpoint_path"] = args.checkpoint
    return kw


def _line(x, vals):
    return f"{x} {' '.join(map(str, vals))}\n"


def _run(args, fn, *a, listing=True, **kw):
    """Call fn(*a, **kw) with the config fields and a tuple sink; return its result.

    Lines go to --out if given, else to stdout; a census (listing=False)
    writes them to stdout only with --unsorted.  They are sorted by x
    unless --unsorted is given, in which case they stream as found.
    """
    kw.update(_config_kw(args))
    if args.out:
        # a checkpointed run appends: the search cuts the file back to the
        # length its checkpoint recorded, or to 0 when it starts afresh
        try:
            out = open(args.out, "w" if args.checkpoint is None else "a")
        except OSError as e:
            raise ValueError(f"cannot write --out: {e}") from None
        with out:
            if args.checkpoint is not None:
                kw["output"] = out
            res = fn(*a, on_tuple=lambda x, vals: out.write(_line(x, vals)), **kw)
        if not args.unsorted:
            with open(args.out) as f:
                lines = sorted(f, key=lambda line: int(line.split(" ", 1)[0]))
            tmp = args.out + ".tmp"
            with open(tmp, "w") as f:
                f.writelines(lines)
            os.replace(tmp, args.out)
        return res
    if not (listing or args.unsorted):
        return fn(*a, **kw)
    if args.unsorted:
        return fn(*a, on_tuple=lambda x, vals: sys.stdout.write(_line(x, vals)), **kw)
    rows = []
    res = fn(*a, on_tuple=lambda x, vals: rows.append((x, _line(x, vals))), **kw)
    sys.stdout.writelines(line for _, line in sorted(rows))
    return res


def _cmd_search(args):
    res = _run(args, search, parse_pattern(args.pattern), args.n, keep_xs=False)
    print(f"count={res.count}")
    return 0


def _cmd_census(args):
    res = _run(args, args.census, args.x, listing=False)
    print(f"count={res.count}")
    print(f"sum={res.recip_sum:.17g}")
    return 0


def _cmd_chains(args):
    progress = None
    if args.progress:
        def progress(done):
            print(f"progress: {done} residues", file=sys.stderr)
    if not args.smallest:
        res = _run(args, chain_search, args.kind, args.length, args.cap, progress=progress,
                   keep_xs=False)
        print(f"count={res.count}")
        return 0
    if args.checkpoint is not None:
        raise ValueError("--smallest searches several windows of the bound; "
                         "one --checkpoint cannot cover them")
    x = _run(args, smallest_chain, args.kind, args.length, args.cap, progress=progress)
    print(f"count={int(x is not None)}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tuplesieve",
        description="Find all x <= bound where every form of a linear pattern is prime.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="search an arbitrary pattern")
    _add_search_options(p)
    p.set_defaults(fn=_cmd_search)

    for name, census, text in (
        ("twins", twins, "twin pairs (p, p+2) with p < X, with reciprocal sum"),
        ("quads", quads, "quadruplets (p,p+2,p+6,p+8) with largest member < X"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--x", required=True, type=int, dest="x")
        _add_search_options(p, with_pattern=False)
        p.set_defaults(fn=_cmd_census, census=census)

    p = sub.add_parser("chains", help="Cunningham chain starts up to a cap")
    p.add_argument("--kind", required=True, choices=("first", "second"))
    p.add_argument("--length", required=True, type=int)
    p.add_argument("--cap", required=True, type=int)
    p.add_argument("--smallest", action="store_true",
                   help="report only the least complete (unextendable) chain")
    p.add_argument("--progress", action="store_true",
                   help="report residue progress on stderr")
    _add_search_options(p, with_pattern=False)
    p.set_defaults(fn=_cmd_chains)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # a shell's status for a SIGPIPE death; /dev/null takes what is left to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except TableCapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PatternError, PlanError, WheelError, CheckpointError, ValueError,
            OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
