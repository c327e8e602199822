"""Command-line interface.

Every subcommand wraps one library call.  The commands that take a family
(`arcs validate`, `angulation`, `k0 present`, `render arcs`) read it as JSON
(inline, file, or stdin) through one reader, `_family_from_args`, which
reads --canonical M as the symbolic input {"family": "canonical", "m": M};
the others take flags only.  `render` writes SVG; every other command hands
its report to `_report`, the one writer of JSON (the default) or text, of
the PASS/FAIL line and of the exit code.  Exit codes are 0 for success or a
passing check, 1 for a mathematical failure (a verification or certificate
that comes back negative), and 2 for input errors.  Identical invocations
produce byte-identical output.  NO_COLOR disables the pass/fail coloring of
text summaries on a terminal (a file named by -o is never colored); argparse
wraps --help text to COLUMNS.

A process is one short command, so it pays only for what that command runs.
At module level only `arcs` and `render` are imported.  A handler imports
`angulation`, `quiver` or `k0` when it runs and calls through the module.
No module imports `dataclasses`: the value classes are `FrozenValue` classes
(see `arcs`), since that import with `inspect` took more than a tenth of a
short command's time.  The parser adds the commands of a group only when
argparse reads that group (`_GroupParser`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from itertools import chain
from pathlib import Path

from .arcs import Arc, CategoryParams, Window, window_arc_count, window_rows
from .render import MAX_DIAGRAM_POINTS, RenderOptions, arc_diagram_svg, quiver_svg

TYPE_CHECKING = False  # typing.TYPE_CHECKING without the cost of importing typing
if TYPE_CHECKING:
    from .angulation import ArcFamily

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _payload(args: argparse.Namespace) -> object:
    given = [x for x in (args.input, args.json) if x is not None]
    if len(given) > 1:
        raise ValueError("give at most one of --input and --json")
    if args.json is not None:
        text = args.json
    elif args.input is not None:
        text = Path(args.input).read_text(encoding="utf-8")
    elif sys.stdin is None or sys.stdin.isatty():  # None: the process has no fd 0
        raise ValueError("no input: use --input PATH or --json STR (or pipe JSON to stdin)")
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None


def _family_from_args(
    args: argparse.Namespace, members: Callable[[int, int], int] | None = None
) -> ArcFamily:
    """The family of the input; --canonical M is read as {"family": "canonical", "m": M}.

    A bad -n is reported before any input is read.  `members`, when given,
    maps the M and n (from -n, else the input) of a canonical family to the
    number of members to build, or raises to refuse M.  It sees only exact
    ints, M in 1..MAX_CANONICAL_MEMBERS and n >= 1; any other M or n goes
    unchanged to `parse_family` and `canonical_family`, which refuse it.
    """
    from . import angulation

    params = CategoryParams(args.n) if args.n is not None else None
    canonical_m = getattr(args, "canonical", None)
    if canonical_m is None:
        payload = _payload(args)
    elif args.input is not None or args.json is not None:
        raise ValueError("give either --canonical or explicit input, not both")
    elif params is None:
        raise ValueError("--canonical needs -n")
    else:
        payload = {"family": angulation.CANONICAL_TAG, "m": canonical_m}
    if members and isinstance(payload, dict) and payload.get("family") == angulation.CANONICAL_TAG:
        m, n = payload.get("m"), params.n if params is not None else payload.get("n")
        if type(m) is type(n) is int and 0 < m <= angulation.MAX_CANONICAL_MEMBERS and n > 0:
            payload = {**payload, "m": members(m, n)}
    return angulation.parse_family(payload, params)


def _window_from_args(args: argparse.Namespace, family: ArcFamily) -> Window:
    if args.window is not None:
        return Window(args.window[0], args.window[1])
    if not family.arcs:
        raise ValueError("an explicit --window LO HI is required for this input")
    return Window(min(a.t for a in family.arcs), max(a.u for a in family.arcs))


_BATCH_CHARS = 1 << 16
"""Characters joined into one write, at least: a write per arc made `arcs
enumerate` to a pipe nearly twice as slow as 64 KiB writes.  The bound is on
size, not on a count of chunks, because a row chunk of `arcs enumerate` holds
up to 70 KB."""


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write the chunks to the -o file, or to stdout, in batches of _BATCH_CHARS.

    The one writer of command output.  A handler calls it last, after every
    check has passed, so a refused input never creates the -o file.
    """
    sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with sink as out:
        batch: list[str] = []
        size = 0
        for chunk in chunks:
            batch.append(chunk)
            size += len(chunk)
            if size >= _BATCH_CHARS:
                out.write("".join(batch))
                batch, size = [], 0
        if batch:
            out.write("".join(batch))


def _report(
    args: argparse.Namespace, obj: object, lines: Iterable[str], verdict: bool | None = None
) -> int:
    """Write a command's report and return its exit code.

    `--format json` streams `obj` with `indent=2`, as the chunks of
    `iterencode`, so no copy of the whole text is held; an `obj` that is an
    iterator already holds that text, in chunks, and is streamed as it is.
    `--format text` writes `lines`, which are only formatted then; an item
    may hold several lines, joined by newlines.  A check passes its
    `verdict`: the text ends in a result line, and a failed check exits 1.
    """
    if args.format == "json":
        encode = json.JSONEncoder(indent=2).iterencode
        _emit(args, obj if isinstance(obj, Iterator) else chain(encode(obj), ("\n",)))
    else:
        if verdict is not None:
            word = "PASS" if verdict else "FAIL"
            # colour is for a terminal, so never for text written to an -o file
            if os.environ.get("NO_COLOR") is None and not args.output and sys.stdout.isatty():
                word = f"\x1b[{32 if verdict else 31}m{word}\x1b[0m"
            lines = chain(lines, [f"result: {word}"])
        _emit(args, (line + "\n" for line in lines))
    return EXIT_MATH_FAIL if verdict is False else EXIT_OK


def _arc_lines(arcs: Iterable[Arc], *head: str) -> Iterator[str]:
    return chain(head, (f"({a.t}, {a.u})" for a in arcs))


def _cmd_arcs_validate(args: argparse.Namespace) -> int:
    family = _family_from_args(args)  # raises with a diagnostic on bad arcs
    report = {
        "n": family.params.n,
        "count": len(family.arcs),
        "valid": True,
        "arcs": [a.to_json() for a in family.arcs],
    }
    return _report(args, report, [f"{len(family.arcs)} arcs, all {family.params.n}-admissible"])


def _json_with_rows(head: dict, rows: Iterable[tuple[int, range]]) -> Iterator[str]:
    """`json.dumps({**head, "arcs": [[t, u] for t, us in rows for u in us]}, indent=2) + "\n"`.

    One chunk per row.  `head` must be a non-empty dict, and every row must
    hold an arc.  Nothing is built per pair but its text.
    """
    yield json.dumps(head, indent=2)[:-2] + ',\n  "arcs": ['
    sep = "\n"
    for t, us in rows:
        pair = f"    [\n      {t},\n      "
        yield sep + pair + f"\n    ],\n{pair}".join(map(str, us)) + "\n    ]"
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def _cmd_arcs_enumerate(args: argparse.Namespace) -> int:
    params = CategoryParams(args.n)
    window = Window(args.window[0], args.window[1])
    rows = window_rows(params, window)  # checks the window now; only one format reads it
    count = window_arc_count(params, window)
    head = {"n": params.n, "window": [window.lo, window.hi], "count": count}
    lines = (f"({t}, " + f")\n({t}, ".join(map(str, us)) + ")" for t, us in rows)
    return _report(args, _json_with_rows(head, rows), lines)


def _quiver_from_args(args: argparse.Namespace):
    from . import quiver

    params = CategoryParams(args.n)
    t_range = Window(args.trange[0], args.trange[1])
    columns = Window(args.columns[0], args.columns[1]) if args.columns else None
    return quiver.quiver_window(params, args.component, t_range, args.depth, columns=columns)


def _cmd_quiver_window(args: argparse.Namespace) -> int:
    qw = _quiver_from_args(args)
    head = f"component {qw.component}: {len(qw.nodes)} nodes, {len(qw.arrow_index)} arrows"
    return _report(args, qw.to_json_dict(), _arc_lines(qw.nodes, head))


def _cmd_angulation_check(args: argparse.Namespace) -> int:
    from . import angulation

    family = _family_from_args(args)
    window = _window_from_args(args, family)
    pair = angulation.validate_noncrossing(family)
    witness = None if pair else angulation.is_maximal_in_window(family, window)
    report = {
        "n": family.params.n,
        "window": [window.lo, window.hi],
        "certificate": "window-local",
        "noncrossing": pair is None,
        "crossing_pair": [pair[0].to_json(), pair[1].to_json()] if pair else None,
        "window_maximal": None if pair else witness is None,
        "witness": witness.to_json() if witness else None,
    }
    lines = [f"window-local certificate over [{window.lo}, {window.hi}]"]
    if pair:
        lines.append(f"crossing: ({pair[0].t}, {pair[0].u}) x ({pair[1].t}, {pair[1].u})")
    elif witness:
        lines.append(f"not maximal: arc ({witness.t}, {witness.u}) can be added")
    return _report(args, report, lines, pair is None and witness is None)


def _cmd_angulation_complete(args: argparse.Namespace) -> int:
    from . import angulation

    family = _family_from_args(args)
    window = _window_from_args(args, family)
    completed = angulation.complete_in_window(family, window)
    added = len(completed.arcs) - len(family.arcs)
    head = f"added {added} arcs inside [{window.lo}, {window.hi}]"
    return _report(args, completed.to_json_dict(), _arc_lines(completed.arcs, head))


def _cmd_family_canonical(args: argparse.Namespace) -> int:
    from . import angulation

    family = angulation.canonical_family(CategoryParams(args.n), args.m)
    return _report(args, family.to_json_dict(), _arc_lines(family.arcs))


def _cmd_k0_present(args: argparse.Namespace) -> int:
    from . import k0

    family = _family_from_args(args, lambda m, _: k0.require_relation_count(m, m - 1) or m)
    pres = k0.k0_presentation(family.params, family)
    report = pres.to_json_dict()
    head = [
        f"generators={report['generators']} relations_used={report['relations_used']}",
        f"free_rank={report['free_rank']} torsion={report['invariant_factors']}",
        f"label: {report['label']}",
    ]
    classes = zip(_arc_lines(family.arcs), pres.classes)
    return _report(args, report, chain(head, (f"class {a} -> {list(c)}" for a, c in classes)))


def _cmd_k0_verify(args: argparse.Namespace) -> int:
    from . import k0

    report = k0.verify_theorem(CategoryParams(args.n), args.m)
    lines = [
        f"k0 verify: n={args.n} m={args.m}",
        f"free_rank={report.free_rank} torsion={list(report.invariant_factors)} "
        f"relations_used={report.relations_used}",
        "classes=" + str([c[0] if len(c) == 1 else list(c) for c in report.classes]),
    ]
    if report.first_violation:
        lines.append(f"violation: {report.first_violation}")
    return _report(args, report.to_json_dict(), lines, report.passed)


def _render_options(args: argparse.Namespace, highlight: tuple[Arc, ...] = ()) -> RenderOptions:
    return RenderOptions(
        width=args.width,
        height=args.height,
        labels=not args.no_labels,
        highlight=highlight,
    )


def _cmd_render_arcs(args: argparse.Namespace) -> int:
    lo, hi = args.window
    # member i has length 1 + i * n and holds member i - 1 (`canonical_family`), so
    # the first one outside the window comes by (span - 1) // n + 1, and a window
    # too wide to draw is refused whatever the members
    span = min(hi - lo, MAX_DIAGRAM_POINTS)
    family = _family_from_args(args, lambda m, n: min(m, max(1, (span - 1) // n + 1)))
    _emit(args, [arc_diagram_svg(family, Window(lo, hi), _render_options(args))])
    return EXIT_OK


def _cmd_render_quiver(args: argparse.Namespace) -> int:
    from . import angulation

    qw = _quiver_from_args(args)
    highlight: tuple[Arc, ...] = ()
    if args.highlight_canonical is not None:
        # member i lies in row i, so only the first `depth` can be drawn
        m = min(args.highlight_canonical, args.depth)
        highlight = angulation.canonical_family(CategoryParams(args.n), m).arcs
    _emit(args, [quiver_svg(qw, _render_options(args, highlight))])
    return EXIT_OK


def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_LO_HI = {"nargs": 2, "type": int, "metavar": ("LO", "HI")}
_N = _opt("-n", type=int, required=True, help="model parameter n >= 1")
_N_OR_INPUT = _opt(
    "-n", type=int, help="model parameter n >= 1 (optional if the input carries it)"
)
_INPUT = (
    _opt("--input", metavar="PATH", help="read JSON from a file"),
    _opt("--json", metavar="STR", help="inline JSON"),
)
_FORMAT = (
    _opt("--format", choices=("json", "text"), default="json"),
    _opt("-o", "--output", metavar="PATH", help="write to a file instead of stdout"),
)
_WINDOW = _opt("--window", **_LO_HI)
_CANONICAL = _opt(
    "--canonical", type=int, metavar="M", help="use the canonical family of size M"
)
_QUIVER = (
    _N,
    _opt("--component", type=int, required=True, help="component index in 0..n-1"),
    _opt("--trange", required=True, **_LO_HI),
    _opt("--depth", type=int, required=True, help="largest row to include"),
    _opt("--columns", help="also restrict t+u to this band (diagonal crop)", **_LO_HI),
)
_SVG = (
    _opt("--width", type=int, default=900),
    _opt("--height", type=int, default=360),
    _opt("--no-labels", action="store_true"),
    _opt("-o", "--output", metavar="PATH", help="write the SVG to a file"),
)

# (group, help, [(command, help, options, handler)]), in --help order
_COMMANDS = (
    ("arcs", "validate and enumerate admissible arcs", [
        ("validate", "check arcs for normalization and admissibility",
         (_N_OR_INPUT, *_INPUT, *_FORMAT), _cmd_arcs_validate),
        ("enumerate", "list all admissible arcs inside a window",
         (_N, _opt("--window", required=True, **_LO_HI), *_FORMAT), _cmd_arcs_enumerate),
    ]),
    ("quiver", "inspect the translation quiver", [
        ("window", "extract a finite window of one component",
         (*_QUIVER, *_FORMAT), _cmd_quiver_window),
    ]),
    ("angulation", "non-crossing families and maximality", [
        ("check", "non-crossing and window-maximality certificate",
         (_N_OR_INPUT, *_INPUT, _WINDOW, *_FORMAT), _cmd_angulation_check),
        ("complete", "greedily extend a family inside a window",
         (_N_OR_INPUT, *_INPUT, _WINDOW, *_FORMAT), _cmd_angulation_complete),
    ]),
    ("family", "built-in arc families", [
        ("canonical", "the first m arcs of the staircase family",
         (_N, _opt("--m", type=int, required=True, help="number of arcs"), *_FORMAT),
         _cmd_family_canonical),
    ]),
    ("k0", "Grothendieck group presentations", [
        ("present", "present the quotient group of a family",
         (_N_OR_INPUT, *_INPUT, _CANONICAL, *_FORMAT), _cmd_k0_present),
        ("verify", "check a canonical truncation against the known answer",
         (_N, _opt("--m", type=int, required=True, help="truncation size (>= 2)"), *_FORMAT),
         _cmd_k0_verify),
    ]),
    ("render", "SVG figures", [
        ("arcs", "draw an arc family over a window",
         (_N_OR_INPUT, *_INPUT, _CANONICAL, _opt("--window", required=True, **_LO_HI), *_SVG),
         _cmd_render_arcs),
        ("quiver", "draw a quiver window",
         (*_QUIVER,
          _opt("--highlight-canonical", type=int, metavar="M",
               help="highlight members of the canonical family of size M"),
          *_SVG),
         _cmd_render_quiver),
    ]),
)


class _GroupParser(argparse.ArgumentParser):
    """The parser of one group, which adds the group's commands when argparse
    first hands it the rest of a command line.

    So a process builds the commands of the group that argparse itself read
    as GROUP, and no others: a parser with one group's commands took 0.8 ms
    to build against 2.2 ms with all of them (Python 3.11, 2-CPU x86-64 host).
    """

    def __init__(self, *args, commands=(), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._commands = commands

    def parse_known_args(self, args=None, namespace=None):
        if self._commands:
            sub = self.add_subparsers(
                dest="command", metavar="COMMAND", required=True,
                parser_class=argparse.ArgumentParser,
            )
            for command, command_help, options, handler in self._commands:
                p = sub.add_parser(command, help=command_help)
                for flags, kwargs in options:
                    p.add_argument(*flags, **kwargs)
                p.set_defaults(handler=handler)
            self._commands = ()
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infgon",
        description="Arc model of the n-cluster categories of the infinity-gon.",
    )
    groups = parser.add_subparsers(
        dest="group", metavar="GROUP", required=True, parser_class=_GroupParser
    )
    for group, group_help, commands in _COMMANDS:
        groups.add_parser(group, help=group_help, commands=commands)
    return parser


if __name__ == "__main__":
    sys.exit(main())
