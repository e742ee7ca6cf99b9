"""Command-line surface: elements, subgroups, blocks, wreath, characters,
and the classifier.

Exit codes: 0 on success, 2 on invalid input, 3 when a window-scale
computation is inconclusive (the report explains what was missing).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring_ascii

from .blocks import BlockSystem, find_block_systems, quotient, verify_block_system
from .bns import (
    f_certificate,
    in_sigma,
    kernel_lattice_of_character,
    parse_character,
    subgroup_type,
)
from .classify import classify
from .elements import HoughtonElement, cycle_structure
from .errors import (
    DomainError,
    InconclusiveError,
    InvalidElementError,
    UnsupportedCaseError,
)
from .subgroups import (
    GeneratedSubgroup,
    TranslationLattice,
    hirsch_length,
    is_congruence_lifting,
    is_level,
    orbit_summary,
    parse_word,
    translation_lattice,
)
from .wreath import build_block_context, kk_embed, verify_kk


# Largest threshold, head position, word exponent and cycle position the
# command line accepts.  Element work still grows with them: the finite
# cycles that `element cycles` lists can be as long as the threshold, and
# word powers grow with the exponent.  (The recount behind window_checked
# folds the runs between head points, so its cost does not.)  So input past
# it is rejected up front.  The library itself is unbounded.
POSITION_BOUND = 10**5

# Largest window, in points (ray count times --window), the command line
# accepts.  The window closures grow as n * W and the wreath closes at 4W: on
# the pair group (n = 2) at W = 10^4, `classify` took 0.14 s and 29 MiB and
# `wreath verify --samples 20` 1.0 s and 63 MiB; at W = 10^5 classify took
# 1.34 s and 146 MiB (in process, one Xeon core).  The default windows at the
# ray bound are 2,560 and 3,840 points.  The library itself is unbounded.
WINDOW_POINT_BOUND = 20_000

# Largest ray count the command line accepts.  Parsing a word costs time and
# memory linear in n (`element parse --word g2` took 1.4 s and 55 MiB at
# n = 10^6), and the lattice work grows faster: at n = 64 `bns certificate`
# took 0.04-0.07 s on the zero-sum lattice and 0.2-0.33 s on a dense one
# (entries in [-6, 6]), whose Hermite form took 13 s at n = 128 (in process,
# one Xeon core).  No benchmark input has more than 5 rays; the library is unbounded.
RAY_BOUND = 64

_WORD_EXPONENT = re.compile(r"\^(-?\d+)")
_WORD_POSITION = re.compile(r"\d+:(\d+)")
_WORD_NUMBER = re.compile(r"\d+")


def _within_bound(value: int, what: str) -> None:
    if abs(value) > POSITION_BOUND:
        raise DomainError(f"{what} {value} is above the command-line bound {POSITION_BOUND}")


def _within_ray_bound(n: int) -> None:
    if n > RAY_BOUND:
        raise DomainError(f"ray count {n} is above the command-line bound {RAY_BOUND}")


def _bounded(elt: HoughtonElement) -> HoughtonElement:
    _within_ray_bound(elt.n)
    _within_bound(elt.threshold, "element threshold")
    # a head image of ray j lies below threshold + t_j, so only then is the head read
    if elt.threshold + max(elt.t) > POSITION_BOUND + 1:
        for _, q in elt.head:
            _within_bound(q.pos, "head position")
    return elt


def _parse_word(text: str, n: int) -> HoughtonElement:
    _within_ray_bound(n)
    # every number in a word (generator, ray, position, exponent) is at most
    # the bound, and int() fails on a digit string past 4,300 digits, so a
    # string with more digits than the bound is rejected before int() reads it
    for m in _WORD_NUMBER.finditer(text):
        if len(m.group().lstrip("0")) > len(str(POSITION_BOUND)):
            raise DomainError(
                f"a number of {len(m.group())} digits in the word is above the "
                f"command-line bound {POSITION_BOUND}"
            )
    for m in _WORD_EXPONENT.finditer(text):
        _within_bound(int(m.group(1)), "word exponent")
    for m in _WORD_POSITION.finditer(text):
        _within_bound(int(m.group(1)), "cycle position")
    return parse_word(text, n)


def _read_json(path):
    """The JSON value in the file, or DomainError naming the file.

    ValueError covers UnicodeDecodeError, malformed JSON and integers past
    Python's digit limit; RecursionError, JSON nested too deep to load.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


def _load_element(path) -> HoughtonElement:
    return _bounded(HoughtonElement.from_json_dict(_read_json(path)))


def _load_subgroup(path) -> GeneratedSubgroup:
    group = GeneratedSubgroup.from_json_dict(_read_json(path))
    _within_ray_bound(group.n)
    for g in group.generators:
        _bounded(g)
    return group


def _load_windowed(args) -> GeneratedSubgroup:
    """The --subgroup of a command that reads --window, within the window bound."""
    group = _load_subgroup(args.subgroup)
    if group.n * args.window > WINDOW_POINT_BOUND:
        raise DomainError(
            f"window {args.window} on {group.n} rays is {group.n * args.window} points, "
            f"above the command-line bound {WINDOW_POINT_BOUND}"
        )
    return group


def _load_blocks(path) -> BlockSystem:
    data = _read_json(path)
    if isinstance(data, dict):
        if "blocks" not in data:
            raise DomainError("block file object has no 'blocks' key")
        data = data["blocks"]
    return BlockSystem.from_lists(data)


def _needed(args, flag: str):
    if getattr(args, flag) is None:
        raise DomainError(f"{args.command} {args.action} needs --{flag}")
    return getattr(args, flag)


def _parse_lattice(text: str, n: int) -> TranslationLattice:
    rows = []
    for chunk in text.split(";"):
        row = []
        for v in chunk.replace(",", " ").split():
            try:
                row.append(int(v))
            except ValueError:
                raise DomainError(f"lattice entry {v!r} is not an integer") from None
        if row:
            rows.append(row)
    return TranslationLattice.from_vectors(n, rows)


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` written at ``indent``, byte for byte.

    With an indent, ``json.dumps`` always runs the pure-Python encoder, which
    is slow on long cycle lists.  Here ints, strings, non-empty dicts with
    string keys and non-empty lists and tuples are written directly, and a
    list of [ray, pos] int pairs from one template.  A cycle given as its
    runs (ray, positions), as ``cycle_structure`` keeps it, is written as its
    [ray, pos] points one run at a time: the points of a run share the ray's
    prefix and suffix, so a run is one ``str.join`` of its positions.  Every
    other value goes to ``json.dumps``, its lines moved to ``indent``.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if (kind is list or kind is tuple) and value:
        if all(type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is range
               and x[1] for x in value):
            runs = []
            for ray, positions in value:
                prefix, suffix = f"{inner}[\n{inner}  {ray},\n{inner}  ", f"\n{inner}]"
                runs.append(prefix + f"{suffix},\n{prefix}".join(map(str, positions)) + suffix)
            body = ",\n".join(runs)
        elif all(type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
                 for p in value):
            pair = f"{inner}[\n{inner}  %d,\n{inner}  %d\n{inner}]"
            body = ",\n".join([pair % (ray, pos) for ray, pos in value])
        else:
            body = ",\n".join([inner + _json_text(x, inner) for x in value])
        return f"[\n{body}\n{indent}]"
    if kind is dict and value and all(type(k) is str for k in value):
        body = ",\n".join(
            f"{inner}{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
            for k in sorted(value)
        )
        return f"{{\n{body}\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


# -- subcommand handlers ------------------------------------------------------


def _cmd_element(args) -> int:
    if args.action == "parse":
        if args.file:
            elt = _load_element(args.file[0])
        else:
            if not args.word or args.n is None:
                raise DomainError("element parse needs --file or both --word and --n")
            elt = _parse_word(args.word[0], args.n)
        data = elt.to_json_dict()
        _emit(args, data, [json.dumps(data)])
        return 0
    if args.action == "compose":
        elts = [_load_element(p) for p in args.file]
        if args.word:
            if args.n is None:
                raise DomainError("--word needs --n")
            elts += [_parse_word(w, args.n) for w in args.word]
        if not elts:
            raise DomainError("nothing to compose")
        out = elts[0]
        for e in elts[1:]:
            out = out.compose(e)
        data = out.to_json_dict()
        _emit(args, data, [json.dumps(data)])
        return 0
    # cycles: argparse's choices leave no other action
    if len(args.file) != 1:
        raise DomainError("element cycles needs exactly one --file")
    elt = _load_element(args.file[0])
    cs = cycle_structure(elt)
    # the cycles go to the writer as runs: no point is built per listed point
    payload = {
        "finite_cycles": list(cs.runs),
        "infinite_cycles": cs.infinite_cycle_count,
        "window_checked": cs.window_checked,
    }
    _emit(
        args,
        payload,
        [
            f"finite cycles: {len(cs.runs)}",
            f"infinite cycles: {cs.infinite_cycle_count}",
        ],
    )
    return 0


def _cmd_subgroup(args) -> int:
    group = _load_windowed(args)
    lattice = translation_lattice(group)
    if args.action == "lattice":
        payload = {
            "basis": [list(r) for r in lattice.basis],
            "rank": lattice.rank,
            "index_in_zero_sum": lattice.index_in_zero_sum(),
        }
        _emit(args, payload, [f"basis: {payload['basis']}", f"index: {payload['index_in_zero_sum']}"])
        return 0
    if args.action == "hirsch":
        rank, full = hirsch_length(group)
        _emit(
            args,
            {"hirsch": rank, "full": full},
            [f"hirsch length: {rank} ({'full' if full else 'not full'})"],
        )
        return 0
    if args.action == "level":
        verdict = is_level(lattice)
        cong = is_congruence_lifting(lattice)
        payload = {
            "level": verdict.is_level,
            "witness": list(verdict.witness[:2]) if verdict.witness else None,
            "congruence_lifting": bool(cong),
            "modulus": cong.modulus,
        }
        _emit(
            args,
            payload,
            [
                f"level: {verdict.is_level}"
                + (f" (witness pair {verdict.witness[:2]})" if verdict.witness else ""),
                f"congruence-lifting: {bool(cong)}"
                + (f" with modulus {cong.modulus}" if cong.modulus else ""),
            ],
        )
        return 0
    # orbits
    payload = orbit_summary(group, args.window)
    _emit(
        args,
        payload,
        [
            f"orbit classes in window {args.window}: {payload['class_count']}",
            f"stabilized: {payload['stabilized']}",
        ],
    )
    return 0


def _cmd_blocks(args) -> int:
    group = _load_windowed(args)
    if args.action == "find":
        result = find_block_systems(group, depth=args.window)
        payload = {
            "systems": [s.to_json_list() for s in result.systems],
            "caveat": result.caveat,
        }
        lines = [f"found {len(result.systems)} block system(s)"]
        lines += [f"  {s.to_json_list()}" for s in result.systems]
        lines.append(f"caveat: {result.caveat}")
        _emit(args, payload, lines)
        return 0
    system = _load_blocks(_needed(args, "blocks"))
    if args.action == "verify":
        verdict = verify_block_system(group, system, depth=args.window)
        payload = {
            "valid": verdict.valid,
            "orbit_axiom": verdict.orbit_axiom,
            "block_axiom": verdict.block_axiom,
            "witnesses": [list(map(str, w)) for w in verdict.witnesses],
            "multi_ray_translates": verdict.multi_ray_translate_count,
        }
        _emit(args, payload, [f"valid: {verdict.valid}"] + [str(w) for w in verdict.witnesses])
        return 0
    # quotient
    q = quotient(group, system, depth=args.window)
    payload = {
        "classes": len(q.classes),
        "kernel_generators": list(q.kernel_generators),
        "induced": [e.to_json_dict() for e in q.induced],
    }
    lines = [f"classes in window: {len(q.classes)}"]
    lines += [
        f"generator {i} induces t={e.translation_vector()}"
        for i, e in enumerate(q.induced)
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_wreath(args) -> int:
    group = _load_windowed(args)
    system = _load_blocks(args.blocks)
    ctx = build_block_context(group, system, args.window)
    if args.action == "embed":
        if args.word:
            elements = [_parse_word(w, group.n) for w in args.word]
        else:
            elements = list(group.generators)
        embedded = [kk_embed(e, ctx) for e in elements]
        payload = {"embedded": [x.to_json_dict() for x in embedded]}
        lines = []
        for x in embedded:
            lines.append(
                f"head t={x.head.translation_vector()} base support={len(x.base)}"
            )
        _emit(args, payload, lines)
        return 0
    # verify
    report = verify_kk(group, ctx, samples=args.samples, seed=args.seed)
    payload = {
        "pairs_checked": report.pairs_checked,
        "homomorphism_failures": report.homomorphism_failures,
        "injectivity_failures": report.injectivity_failures,
        "support_mismatches": report.support_mismatches,
        "ok": report.ok,
    }
    _emit(args, payload, [f"embedding check: {'ok' if report.ok else 'FAILED'}"])
    return 0


def _cmd_bns(args) -> int:
    _within_ray_bound(args.n)
    if args.action == "sigma":
        chi = parse_character(_needed(args, "chi"), args.n)
        inside = in_sigma(chi, args.m)
        _emit(
            args,
            {"chi": chi.to_json_dict(), "m": args.m, "in_sigma": inside},
            [f"{'in' if inside else 'not in'} Sigma^{args.m}"],
        )
        return 0
    if args.action == "type":
        lattice = kernel_lattice_of_character(_needed(args, "kernel"), args.n)
        verdict = subgroup_type(args.n, lattice)
        payload = {
            "type_f_max": verdict.type_f_max,
            "capped": verdict.capped,
            "blocking": [c.to_json_dict() for c in verdict.blocking],
            "note": verdict.note,
        }
        _emit(
            args,
            payload,
            [
                f"type F_{verdict.type_f_max}"
                + ("" if verdict.capped else f", not F_{verdict.type_f_max + 1}")
            ],
        )
        return 0
    # certificate
    if args.subgroup:
        lattice = translation_lattice(_load_subgroup(args.subgroup))
    elif args.lattice:
        lattice = _parse_lattice(args.lattice, args.n)
    else:
        raise DomainError("certificate needs --subgroup or --lattice")
    cert = f_certificate(lattice)
    payload = {
        "certified": cert.certified,
        "witness_count": cert.witness_count,
        "offending": list(cert.offending[:2]) if cert.offending else None,
    }
    _emit(
        args,
        payload,
        [
            "certified" if cert.certified else f"no certificate (pattern ray-{cert.offending[0]}-zero)"
        ],
    )
    return 0


def _cmd_classify(args) -> int:
    group = _load_windowed(args)
    report = classify(group, window=args.window)
    payload = report.to_json_dict()
    lines = [
        f"n = {report.n}, hirsch = {report.hirsch} ({'full' if report.full_hirsch else 'not full'})",
        f"level: {report.level.get('status')}",
        f"orbit classes: {report.orbit_summary['class_count']}"
        f" (stabilized: {report.orbit_summary['stabilized']})",
        f"verdict: {report.verdict}",
    ]
    _emit(args, payload, lines)
    return 0


# -- parser -------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="houghton-kit",
        description="exact computations in Houghton groups and their subgroups",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("element", help="parse, compose and analyze elements")
    p.add_argument("action", choices=["parse", "compose", "cycles"])
    p.add_argument("--file", action="append", default=[], help="element JSON file")
    p.add_argument("--word", action="append", default=[], help="generator word")
    p.add_argument("--n", type=int, help="ray count for words")
    p.set_defaults(func=_cmd_element)

    p = sub.add_parser("subgroup", help="lattice, hirsch, level and orbit reports")
    p.add_argument("action", choices=["lattice", "hirsch", "level", "orbits"])
    p.add_argument("--subgroup", required=True, help="subgroup JSON file")
    p.add_argument("--window", type=_positive_int, default=40)
    p.set_defaults(func=_cmd_subgroup)

    p = sub.add_parser("blocks", help="find, verify and quotient block systems")
    p.add_argument("action", choices=["find", "verify", "quotient"])
    p.add_argument("--subgroup", required=True)
    p.add_argument("--blocks", help="block system JSON file")
    p.add_argument("--window", type=_positive_int, default=40)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("wreath", help="embed into the multi-wreath product")
    p.add_argument("action", choices=["embed", "verify"])
    p.add_argument("--subgroup", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--window", type=_positive_int, default=60)
    p.add_argument("--word", action="append", default=[])
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_wreath)

    p = sub.add_parser("bns", help="character sphere computations")
    p.add_argument("action", choices=["sigma", "type", "certificate"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chi", help="character, e.g. 't1 - 2 t2'")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--kernel", help="character whose kernel to classify")
    p.add_argument("--lattice", help="semicolon-separated integer rows")
    p.add_argument("--subgroup")
    p.set_defaults(func=_cmd_bns)

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("--subgroup", required=True)
    p.add_argument("--window", type=_positive_int, default=40)
    p.set_defaults(func=_cmd_classify)

    return parser


_parser: argparse.ArgumentParser | None = None


def cli_main(argv=None) -> int:
    # parse_args keeps no state between calls, so one parser serves them all;
    # it is built on the first call, not at import
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        if exc.hint is not None:
            print(f"hint: {exc.hint}", file=sys.stderr)
        return 3
    except (
        DomainError,
        InvalidElementError,
        UnsupportedCaseError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
