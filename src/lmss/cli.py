"""Command-line front end: analyze one graph, verify rules over corpora,
generate corpora as edge-list files.

Exit codes: 0 on success (verify: zero violations), 1 on violations,
2 on usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .graphs import (
    CapacityError,
    ParseError,
    UsageError,
    parse_edge_list,
    serialize_many,
)
from .fixtures import fixture, fixture_names
from .corpus import FILTERS, SOURCES, CorpusSpec, iter_corpus
from .report import analyze_graph, render_text
from .theorems import RULES, verify


def _corpus_spec(args) -> CorpusSpec:
    """The spec of the corpus flags given; ``CorpusSpec`` fills in the rest."""
    given = {f.name: getattr(args, f.name) for f in fields(CorpusSpec)}
    return CorpusSpec(**{name: value for name, value in given.items() if value is not None})


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    # each flag's dest is the CorpusSpec field it sets, which the spec validates
    p.add_argument("--source", choices=list(SOURCES))
    p.add_argument("--max-n", type=int, help="largest vertex count")
    p.add_argument("--count", type=int, help="number of graphs")
    p.add_argument("--n", type=int, help="vertices per graph")
    p.add_argument("--p", type=float, dest="edge_probability", help="edge probability")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--fixture", action="append", dest="fixtures", metavar="NAME",
                   help="fixture name; may repeat")
    p.add_argument("--max-x", type=int, help="largest corona base size")
    p.add_argument("--max-h", type=int, help="largest attached part size")
    p.add_argument("--max-total", type=int, help="largest corona size")
    p.add_argument("--filter", choices=list(FILTERS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmss",
        description="Local maximum stable sets, very well-covered graphs, "
        "and greedoid decisions on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a single graph")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", metavar="NAME",
                     help="one of: " + " ".join(fixture_names()))
    src.add_argument("input", nargs="?", help="edge-list file ('-' for stdin)")
    pa.add_argument("--format", choices=["json", "text"], default="text")

    pv = sub.add_parser("verify", help="check rules over a corpus")
    pv.add_argument("--theorem", action="append", metavar="RULE", required=True,
                    help="rule id or 'all'; known: " + " ".join(sorted(RULES)))
    _add_corpus_args(pv)
    pv.add_argument("--format", choices=["json", "text"], default="text")

    pg = sub.add_parser("generate", help="write a corpus as edge-list text")
    _add_corpus_args(pg)
    pg.add_argument("--output", required=True,
                    help="output file, or directory (one file per graph) with --split")
    pg.add_argument("--split", action="store_true",
                    help="write one file per graph into the output directory")

    return parser


def _cmd_analyze(args) -> int:
    if args.fixture:
        g, name = fixture(args.fixture), args.fixture
    else:
        name = "<stdin>" if args.input == "-" else args.input
        try:
            text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {name}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise UsageError(f"cannot read {name}: not UTF-8 text") from None
        g = parse_edge_list(text)
    report = analyze_graph(g, name=name)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(render_text(report))
    return 0


def _cmd_verify(args) -> int:
    summary = verify(_corpus_spec(args), args.theorem)
    if args.format == "json":
        sys.stdout.write(json.dumps(summary.to_dict(), sort_keys=True, indent=2) + "\n")
    else:
        for rep in summary.reports:
            status = "ok" if not rep.violations else f"{len(rep.violations)} violation(s)"
            sys.stdout.write(f"{rep.rule:18s} checked {rep.checked:6d} graphs: {status}\n")
            for v in rep.violations:
                sys.stdout.write(f"  {v.item}: {v.detail}\n")
                sys.stdout.write("  " + v.edge_list.replace("\n", " / ") + "\n")
        sys.stdout.write(f"total violations: {summary.total_violations}\n")
    return 0 if summary.passed else 1


def _cmd_generate(args) -> int:
    items = iter_corpus(_corpus_spec(args))
    out = Path(args.output)
    folder = out if args.split else out.parent
    written = 0
    try:
        folder.mkdir(parents=True, exist_ok=True)
        if args.split:
            for it in items:
                (out / f"{it.name}.txt").write_text(serialize_many([(it.name, it.graph)]))
                written += 1
        else:
            # serialize_many's blocks and separators, written as the corpus streams
            with out.open("w") as fh:
                for it in items:
                    if written:
                        fh.write("\n")
                    fh.write(serialize_many([(it.name, it.graph)]))
                    written += 1
    except (FileExistsError, NotADirectoryError):
        # a non-directory stands on the folder's path: the nearest existing one
        blocker = next(p for p in (folder, *folder.parents) if p.exists())
        raise UsageError(f"cannot write {out}: {blocker} is not a directory") from None
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None
    sys.stdout.write(f"{written} graphs written\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_generate(args)
    except (ParseError, CapacityError, UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
