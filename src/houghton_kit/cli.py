"""Command-line surface: elements, subgroups, blocks, wreath, characters,
and the classifier.

Exit codes: 0 on success, 2 on invalid input, 3 when a window-scale
computation is inconclusive (the report explains what was missing).
"""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
    # cycles: parse_argv admits no other action
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


# -- argv -----------------------------------------------------------------------


_PROG = "houghton-kit"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return value


class _Flag(NamedTuple):
    type: Callable[[str], object] | None  # None: a switch, which reads no value
    default: object = None
    help: str = ""
    repeat: bool = False  # each use appends to a list, fresh on every call
    required: bool = False


class _Command(NamedTuple):
    func: Callable
    help: str
    actions: tuple  # empty for a command that takes no action
    flags: dict  # name -> _Flag, read as --name


_JSON = _Flag(None, False, "machine-readable output")
_SUBGROUP = _Flag(str, None, "subgroup JSON file", required=True)


def _window(default: int) -> _Flag:
    return _Flag(_positive_int, default, "window depth, a positive integer")


COMMANDS = {
    "element": _Command(
        _cmd_element,
        "parse, compose and analyze elements",
        ("parse", "compose", "cycles"),
        {
            "json": _JSON,
            "file": _Flag(str, None, "element JSON file", repeat=True),
            "word": _Flag(str, None, "generator word", repeat=True),
            "n": _Flag(_positive_int, None, "ray count for words, a positive integer"),
        },
    ),
    "subgroup": _Command(
        _cmd_subgroup,
        "lattice, hirsch, level and orbit reports",
        ("lattice", "hirsch", "level", "orbits"),
        {"json": _JSON, "subgroup": _SUBGROUP, "window": _window(40)},
    ),
    "blocks": _Command(
        _cmd_blocks,
        "find, verify and quotient block systems",
        ("find", "verify", "quotient"),
        {
            "json": _JSON,
            "subgroup": _SUBGROUP,
            "blocks": _Flag(str, None, "block system JSON file"),
            "window": _window(40),
        },
    ),
    "wreath": _Command(
        _cmd_wreath,
        "embed into the multi-wreath product",
        ("embed", "verify"),
        {
            "json": _JSON,
            "subgroup": _SUBGROUP,
            "blocks": _Flag(str, None, "block system JSON file", required=True),
            "window": _window(60),
            "word": _Flag(str, None, "generator word to embed", repeat=True),
            "samples": _Flag(_positive_int, 200, "pairs to check, a positive integer"),
            "seed": _Flag(int, 0, "sample seed"),
        },
    ),
    "bns": _Command(
        _cmd_bns,
        "character sphere computations",
        ("sigma", "type", "certificate"),
        {
            "json": _JSON,
            "n": _Flag(_positive_int, None, "ray count, a positive integer", required=True),
            "chi": _Flag(str, None, "character, e.g. 't1 - 2 t2'"),
            "m": _Flag(int, 1, "the m of Sigma^m"),
            "kernel": _Flag(str, None, "character whose kernel to classify"),
            "lattice": _Flag(str, None, "semicolon-separated integer rows"),
            "subgroup": _Flag(str, None, "subgroup JSON file"),
        },
    ),
    "classify": _Command(
        _cmd_classify,
        "full classification report",
        (),
        {"json": _JSON, "subgroup": _SUBGROUP, "window": _window(40)},
    ),
}

# option string -> flag name, at the top level (key None) and per command
_TOP_OPTIONS = {"-h": "help", "--help": "help", "--json": "json"}
_OPTIONS = {None: _TOP_OPTIONS} | {
    command: _TOP_OPTIONS | {f"--{name}": name for name in cmd.flags}
    for command, cmd in COMMANDS.items()
}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_SEPARATOR = object()  # the first "--": every later argument is a value


class UsageExit(Exception):
    """What `parse_argv` raises in place of a namespace: the text to print and
    the exit code, 0 with the help on stdout or 2 with usage and error on stderr."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _usage(command=None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] [--json] {{{','.join(COMMANDS)}}} ..."
    cmd = COMMANDS[command]
    parts = [f"usage: {_PROG} {command} [-h]"]
    if cmd.actions:
        parts.append("{" + ",".join(cmd.actions) + "}")
    for name, flag in cmd.flags.items():
        text = f"--{name}" if flag.type is None else f"--{name} {name.upper()}"
        parts.append(text if flag.required else f"[{text}]")
    return " ".join(parts)


def _help(command=None) -> str:
    """The -h text: usage, what the command does, and a line per command or flag."""
    options = [("-h, --help", "show this help and exit")]
    if command is None:
        about = "exact computations in Houghton groups and their subgroups"
        sections = [("commands", [(name, cmd.help) for name, cmd in COMMANDS.items()])]
        options.append(("--json", f"{_JSON.help}, before or after the command"))
    else:
        about, sections = COMMANDS[command].help, []
        for name, flag in COMMANDS[command].flags.items():
            notes = [flag.help]
            if flag.required:
                notes.append("(required)")
            elif flag.repeat:
                notes.append("(repeatable)")
            elif flag.type is not None and flag.default is not None:
                notes.append(f"(default {flag.default})")
            options.append((f"--{name}", " ".join(notes)))
    sections.append(("options", options))
    width = max(len(left) for _, rows in sections for left, _ in rows) + 2
    lines = [_usage(command), "", about]
    for title, rows in sections:
        lines += ["", f"{title}:"] + [f"  {left:<{width}}{right}" for left, right in rows]
    return "\n".join(lines) + "\n"


def _failure(command, message: str) -> UsageExit:
    return UsageExit(2, f"{_usage(command)}\n{_PROG}: error: {message}\n")


def _option(arg: str, command):
    """(flag name, explicit value or None) if ``arg`` is an option, None if a value.

    As argparse reads it: an option is matched by its whole string, by its
    string before "=", or by a unique prefix of a long option; "-h" may
    carry a value glued on.  Any other string starting with "-" is an
    unknown option (name None), unless it is "-", a negative number or
    holds a space.
    """
    if arg[:1] != "-" or arg == "-":
        return None
    options = _OPTIONS[command]
    name = options.get(arg)
    if name is not None:
        return name, None
    head, eq, explicit = arg.partition("=")
    if eq and head in options:
        return options[head], explicit
    if arg[1] != "-":
        if arg[:2] in options:
            return options[arg[:2]], arg[2:]
    else:
        matches = [o for o in options if o.startswith(head)]
        if len(matches) > 1:
            raise _failure(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return options[matches[0]], explicit if eq else None
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _positional(argv, kinds, k):
    """(the positional at ``argv[k]``, the index after it), or None for a bare "--".

    As in argparse, a "--" just before or after a positional goes with it.
    """
    if kinds[k] is _SEPARATOR:
        return (argv[k + 1], k + 2) if k + 1 < len(argv) else None
    return argv[k], k + 2 if k + 1 < len(kinds) and kinds[k + 1] is _SEPARATOR else k + 1


def parse_argv(argv) -> SimpleNamespace:
    """The namespace the handlers read, from one command line checked against COMMANDS.

    Flags come in any order after the command, as ``--flag value`` or
    ``--flag=value`` or a unique prefix of either; a repeatable flag appends
    and any other keeps its last value; ``--json`` and ``-h`` go before or
    after the command.  Raises UsageExit for ``-h`` and for argv it cannot
    read.
    """
    json_first, unknown = False, []
    for i, arg in enumerate(argv):
        if arg == "--" or (kind := _option(arg, None)) is None:
            break
        name, explicit = kind
        if name is None:
            unknown.append(arg)
        elif explicit is not None:
            raise _failure(None, f"argument {arg}: ignored explicit argument {explicit!r}")
        elif name == "help":
            raise UsageExit(0, _help())
        else:
            json_first = True
    else:
        raise _failure(None, "the following arguments are required: command")
    command = argv[i]
    cmd = COMMANDS.get(command)
    if cmd is None:
        choices = ", ".join(map(repr, COMMANDS))
        raise _failure(None, f"argument command: invalid choice: {command!r} (choose from {choices})")

    rest = argv[i + 1:]
    kinds = []
    for k, arg in enumerate(rest):
        if arg == "--":
            kinds += [_SEPARATOR] + [None] * (len(rest) - k - 1)
            break
        kinds.append(_option(arg, command))
    values = {name: [] if flag.repeat else flag.default for name, flag in cmd.flags.items()}
    values["json"] |= json_first
    action, k = None, 0
    while k < len(rest):
        kind = kinds[k]
        if kind is None or kind is _SEPARATOR:
            taken = _positional(rest, kinds, k) if cmd.actions and action is None else None
            if taken is None:
                unknown.append(rest[k])
                k += 1
            else:
                action, k = taken
                if action not in cmd.actions:
                    choices = ", ".join(map(repr, cmd.actions))
                    raise _failure(command, f"argument action: invalid choice: {action!r} (choose from {choices})")
            continue
        k += 1
        name, explicit = kind
        if name is None:
            unknown.append(rest[k - 1])
            continue
        flag = cmd.flags.get(name)
        if flag is None or flag.type is None:  # -h or a switch
            if explicit is not None:
                raise _failure(command, f"argument {rest[k - 1]}: ignored explicit argument {explicit!r}")
            if flag is None:
                raise UsageExit(0, _help(command))
            values[name] = True
            continue
        if explicit is None:
            if k == len(rest) or kinds[k] is not None:
                raise _failure(command, f"argument --{name}: expected one argument")
            explicit = rest[k]
            k += 1
        try:
            value = flag.type(explicit)
        except ValueError as exc:
            raise _failure(command, f"argument --{name}: {exc}") from None
        if flag.repeat:
            values[name].append(value)
        else:
            values[name] = value

    missing = ["action"] if cmd.actions and action is None else []
    missing += [f"--{name}" for name, flag in cmd.flags.items() if flag.required and values[name] is None]
    if missing:
        raise _failure(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _failure(None, f"unrecognized arguments: {' '.join(unknown)}")
    if cmd.actions:
        values["action"] = action
    return SimpleNamespace(command=command, func=cmd.func, **values)


def cli_main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except UsageExit as exc:
        (sys.stderr if exc.code else sys.stdout).write(exc.text)
        return exc.code
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
