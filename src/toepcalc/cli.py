"""Command-line interface.

Reports are nested key/value structures rendered either as dotted
``key = value`` lines grouped by top-level section, or as JSON with
``--format json``.  Exit codes: 0 for success and certified-positive
verdicts, 1 for certified-negative verdicts, 2 for unknown/undetermined,
3 for usage, parse, and validation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from .codes import CodeError, apply_block_code, apply_positionwise_permutation, parse_block_code
from .codes import AlphabetMismatch, PositionwisePermutation
from .conjugacy import (
    ConjugateCertified,
    IncompatiblePeriods,
    MissingScaleDeclaration,
    NotConjugateCertified,
    RefutedUpTo,
    Undecided,
    Unknown,
    Verdict,
    conjugacy_decision,
    conjugacy_verdict,
    invariant_compare,
)
from .construction import reference_example
from .core import BLANK, ParseError, SkeletonTower, TowerError, rotate_tower
from .odometer import OdometerError, SupernaturalNumber
from .skeleton import growth_profile, natural_factorization, scale_truncation, status_masks
from .towerfile import parse_tower_text, serialize_tower

Report = dict
T = TypeVar("T")

# the K-stage example has 5·2^K cells at its deepest level (327680 at K = 16)
MAX_GENERATE_STAGES = 16


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 3 instead of argparse's 2
        raise UsageError(message)


def count(text: str) -> int:
    """The argparse type of a counting flag: an integer that is not negative."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="toepcalc", description="finite-stage Toeplitz subshift calculus")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[..., tuple[Report, int]], help: str) -> _Parser:
        (p := sub.add_parser(name, help=help)).set_defaults(handler=handler)
        return p

    p = command("validate", _cmd_validate, help="check a tower file")
    p.add_argument("file")

    p = command("analyze", _cmd_analyze, help="periodic structure, scale truncation, growth")
    p.add_argument("file")
    p.add_argument("--report-depth", type=count, default=None, metavar="N")

    p = command("factor", _cmd_factor, help="stage factorization of a scale")
    p.add_argument("--scale", required=True)
    p.add_argument("--count", type=int, required=True)

    p = command("compare", _cmd_compare, help="conjugacy verdict for two tower files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-radius", type=count, default=2)

    p = command("invariant", _cmd_invariant, help="stage-invariant comparison of two tower files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--stages", type=int, required=True)

    p = command("generate", _cmd_generate, help="write a built-in example tower")
    p.add_argument("kind", choices=("paper-example",))
    stages = range(MAX_GENERATE_STAGES + 1)
    p.add_argument("--stages", type=int, choices=stages, required=True, metavar="K", help=f"0..{stages[-1]}")
    p.add_argument("-o", "--output", required=True)

    p = command("apply-code", _cmd_apply_code, help="apply a sliding block code to a tower")
    p.add_argument("file")
    p.add_argument("--code", required=True)
    p.add_argument("-o", "--output", required=True)

    p = command("permute", _cmd_permute, help="apply a positionwise symbol permutation")
    p.add_argument("file")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--perms", required=True, help="p groups 'a,b;c,d;...' of images in alphabet order")
    p.add_argument("-o", "--output", required=True)

    p = command("rotate", _cmd_rotate, help="rotate a tower")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = command("corpus", _cmd_corpus, help="pairwise verdict matrix over a directory of .tw files")
    p.add_argument("directory")
    p.add_argument("--max-radius", type=count, default=2)

    return parser


def _parse_file(path: str | Path, parse: Callable[[str], T]) -> T:
    """``parse`` applied to the UTF-8 text of the file, less a byte-order mark; an
    error in decoding or parsing it is raised as a ParseError that names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, ParseError, TowerError, CodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_tower(path: str | Path) -> SkeletonTower:
    return _parse_file(path, parse_tower_text)


def _write_tower(path: str, tower: SkeletonTower) -> None:
    Path(path).write_text(serialize_tower(tower), encoding="utf-8")


def _block_text(block: tuple) -> str:
    cells = [c if c is not None else BLANK for c in block]
    return "".join(cells) if all(len(c) == 1 for c in cells) else " ".join(cells)


_VERDICT_TAGS = {
    ConjugateCertified: "conjugate-certified",
    NotConjugateCertified: "not-conjugate",
    RefutedUpTo: "refuted-up-to",
    Unknown: "unknown",
    Undecided: "unknown",  # a decision short of its Unknown diagnostics
}


def _verdict_report(verdict: Verdict) -> tuple[Report, int]:
    tag = _VERDICT_TAGS[type(verdict)]
    if isinstance(verdict, ConjugateCertified):
        witness = {
            str(i): f"{_block_text(a)} -> {_block_text(b)}"
            for i, (a, b) in enumerate(verdict.witness, start=1)
        }
        return {"verdict": tag, "stage": verdict.stage, "shift": verdict.shift, "witness": witness}, 0
    if isinstance(verdict, NotConjugateCertified):
        return {"verdict": tag, "reason": "scale", "detail": verdict.reason}, 1
    if isinstance(verdict, RefutedUpTo):
        return {"verdict": tag, "radius": verdict.radius, "stages": list(verdict.stages)}, 1
    diagnostic = {str(i): d for i, d in enumerate(verdict.diagnostics, start=1)}
    return {"verdict": tag, "diagnostic": diagnostic}, 2


def _cmd_validate(ns) -> tuple[Report, int]:
    tower = _read_tower(ns.file)
    return (
        {
            "status": "valid",
            "alphabet": list(tower.alphabet.symbols),
            "periods": list(tower.periods),
            "scale": str(tower.declared_scale) if tower.declared_scale else None,
            "holes": tower._text.count("\0"),
        },
        0,
    )


def _cmd_analyze(ns) -> tuple[Report, int]:
    tower = _read_tower(ns.file)
    trunc = scale_truncation(tower)
    growth = growth_profile(tower)
    stages: Report = {}
    for p in tower.periods[::-1][: ns.report_depth][::-1]:  # the deepest N levels, all when N is None
        ins, outs, unknowns = map(int.bit_count, status_masks(tower, p))
        row = next(r for r in growth.rows if r.period == p)
        stages[str(p)] = {"in": ins, "out": outs, "unknown": unknowns, "min_block": row.min_block_length}
    return (
        {
            "alphabet": list(tower.alphabet.symbols),
            "periods": list(tower.periods),
            "scale": {
                "declared": str(tower.declared_scale) if tower.declared_scale else None,
                "certified": str(trunc.certified),
                "pending": list(trunc.pending),
                "essential": list(trunc.essentials),
            },
            "growth": {
                "trend": growth.trend,
                "min_block_lengths": [r.min_block_length for r in growth.rows],
            },
            "stage": stages,
        },
        0,
    )


def _cmd_factor(ns) -> tuple[Report, int]:
    scale = SupernaturalNumber.parse(ns.scale)
    return {"scale": str(scale), "factors": list(natural_factorization(scale, ns.count))}, 0


def _cmd_compare(ns) -> tuple[Report, int]:
    a = _read_tower(ns.file_a)
    b = _read_tower(ns.file_b)
    return _verdict_report(conjugacy_verdict(a, b, ns.max_radius))


def _cmd_invariant(ns) -> tuple[Report, int]:
    a = _read_tower(ns.file_a)
    b = _read_tower(ns.file_b)
    comparison = invariant_compare(a, b, ns.stages)
    stages: Report = {}
    evaluated = 0
    for row in comparison.stages:
        evaluated += row.evaluated
        stages[str(row.period)] = {
            "result": row.result.value if row.result is not None else "unevaluated",
            "detail": row.detail,
            "min_block": row.min_block_length,
            "trust_radius": row.trust_radius,
        }
    report = {
        "scale": {"equal": comparison.scale_equal},
        "summary": comparison.summary,
        "equal_suffix": comparison.equal_suffix,
        "stage": stages,
    }
    if not comparison.scale_equal:
        return report, 1
    return report, 0 if 0 < comparison.equal_suffix == evaluated else 2  # every evaluated stage certified equal


def _cmd_generate(ns) -> tuple[Report, int]:
    tower = reference_example(ns.stages)
    _write_tower(ns.output, tower)
    return {"written": ns.output, "stages": ns.stages, "deepest": tower.deepest_period}, 0


def _cmd_apply_code(ns) -> tuple[Report, int]:
    tower = _read_tower(ns.file)
    code = _parse_file(ns.code, lambda text: parse_block_code(text, tower.alphabet))
    result = apply_block_code(tower, code)
    _write_tower(ns.output, result)
    return (
        {
            "written": ns.output,
            "radius": code.length,
            "holes_before": tower._text.count("\0"),
            "holes_after": result._text.count("\0"),
        },
        0,
    )


def _parse_perms(spec: str, alphabet, period: int) -> PositionwisePermutation:
    perms = tuple(tuple(s.strip() for s in g.split(",")) for g in spec.split(";"))
    return PositionwisePermutation(alphabet, period, perms)


def _cmd_permute(ns) -> tuple[Report, int]:
    tower = _read_tower(ns.file)
    phi = _parse_perms(ns.perms, tower.alphabet, ns.period)
    result = apply_positionwise_permutation(tower, phi)
    _write_tower(ns.output, result)
    return {"written": ns.output, "period": ns.period}, 0


def _cmd_rotate(ns) -> tuple[Report, int]:
    tower = _read_tower(ns.file)
    _write_tower(ns.output, rotate_tower(tower, ns.k))
    return {"written": ns.output, "shift": ns.k}, 0


def corpus_matrix(files: Sequence[Path], max_radius: int) -> Report:
    """Pairwise verdict tags over the given tower files, keyed by file name
    in sorted order (independent of the discovery order).  Each tower is read
    once, so its per-tower facts (status tables, phase separation, blank mask,
    block shapes) are built once for all its pairs, and each pair runs only the
    verdict's decision, with no ``Unknown`` diagnostics.  Towers over different
    alphabets name the first file and the first one after it with another one."""
    ordered = sorted(files, key=lambda f: f.name)
    towers = {f.name: _read_tower(f) for f in ordered}
    names = [f.name for f in ordered]
    if odd := [f for f in ordered if towers[f.name].alphabet != towers[names[0]].alphabet]:
        raise AlphabetMismatch(f"towers use different alphabets: {ordered[0]} and {odd[0]}")
    matrix: Report = {}
    for a in names:
        matrix[a] = {}
        for b in names:
            matrix[a][b] = _VERDICT_TAGS[type(conjugacy_decision(towers[a], towers[b], max_radius))]
    return {"files": names, "matrix": matrix}


def _cmd_corpus(ns) -> tuple[Report, int]:
    directory = Path(ns.directory)
    if not directory.is_dir():
        raise UsageError(f"not a directory: {ns.directory}")
    return corpus_matrix(list(directory.glob("*.tw")), ns.max_radius), 0


def _flatten(report: Report, prefix: str = ""):
    for key, value in report.items():
        dotted = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            yield from _flatten(value, dotted)
        else:
            yield dotted, value


def _text_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(_text_value(v) for v in value)
    return str(value)


def render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    lines: list[str] = []
    section: Optional[str] = None
    nested_before = False
    for dotted, value in _flatten(report):
        top, _, rest = dotted.partition(".")
        if section is not None and top != section and (nested_before or rest):
            lines.append("")
        section = top
        nested_before = bool(rest)
        lines.append(f"{dotted} = {_text_value(value)}".rstrip())
    return "\n".join(lines)


def run_command(argv: Sequence[str]) -> tuple[int, str]:
    parser = build_parser()
    helped = io.StringIO()
    try:
        with contextlib.redirect_stdout(helped):
            ns = parser.parse_args(list(argv))
    except UsageError as exc:
        return 3, f"error: {exc}"
    except SystemExit as exc:  # --help prints and exits
        return int(exc.code or 0), helped.getvalue()
    try:
        report, code = ns.handler(ns)
    except (
        UsageError, ParseError, TowerError, CodeError, OdometerError, OSError,
        IncompatiblePeriods, MissingScaleDeclaration,
    ) as exc:
        return 3, f"error: {exc}"
    return code, render_report(report, ns.format)


def main(argv: Optional[Sequence[str]] = None) -> None:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if code == 3 else sys.stdout
    try:
        if text:
            print(text, file=stream, flush=True)
    except BrokenPipeError:  # the reader has gone; send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)
