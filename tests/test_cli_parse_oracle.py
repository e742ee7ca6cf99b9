"""The table parser ``cli.parse_argv`` against the argparse parser it replaced.

``reference_parser`` is the argparse parser the CLI was built on, copied
here; it shares no code with ``parse_argv``.  Over every argv of the CLI
grammar (``tests/test_cli_grammar.py``) and a list of edge cases, the
reference exits 2 exactly when ``parse_argv`` rejects, both print help for
the same argv, and where both accept they give the same attributes
(``func`` aside).  Two differences are intended, and each argv on which the
parsers differ must be explained by one of them:

* ``--json`` after the command, which argparse rejected as an unrecognized
  argument;
* ``--n`` below 1, which argparse took and the handlers failed on later.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

from test_cli_grammar import grammar

from houghton_kit.cli import UsageExit, parse_argv


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def reference_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("subgroup", help="lattice, hirsch, level and orbit reports")
    p.add_argument("action", choices=["lattice", "hirsch", "level", "orbits"])
    p.add_argument("--subgroup", required=True, help="subgroup JSON file")
    p.add_argument("--window", type=_positive_int, default=40)

    p = sub.add_parser("blocks", help="find, verify and quotient block systems")
    p.add_argument("action", choices=["find", "verify", "quotient"])
    p.add_argument("--subgroup", required=True)
    p.add_argument("--blocks", help="block system JSON file")
    p.add_argument("--window", type=_positive_int, default=40)

    p = sub.add_parser("wreath", help="embed into the multi-wreath product")
    p.add_argument("action", choices=["embed", "verify"])
    p.add_argument("--subgroup", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--window", type=_positive_int, default=60)
    p.add_argument("--word", action="append", default=[])
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bns", help="character sphere computations")
    p.add_argument("action", choices=["sigma", "type", "certificate"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chi", help="character, e.g. 't1 - 2 t2'")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--kernel", help="character whose kernel to classify")
    p.add_argument("--lattice", help="semicolon-separated integer rows")
    p.add_argument("--subgroup")

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("--subgroup", required=True)
    p.add_argument("--window", type=_positive_int, default=40)

    return parser


REFERENCE = reference_parser()


def by_reference(argv):
    """("accept", attributes), ("help", None) or ("reject", None) from argparse."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        return ("help", None) if exc.code == 0 else ("reject", None)
    return "accept", vars(args)


def by_table(argv):
    """The same outcome from ``parse_argv``; it prints nothing itself."""
    try:
        args = parse_argv(argv)
    except UsageExit as exc:
        assert exc.code in (0, 2) and exc.text.endswith("\n")
        if exc.code == 2:
            assert "\nhoughton-kit: error: " in exc.text and exc.text.startswith("usage: ")
        return ("help", None) if exc.code == 0 else ("reject", None)
    attrs = dict(vars(args))
    assert callable(attrs.pop("func"))
    return "accept", attrs


def is_json_flag(arg):
    return len(arg) >= 3 and "--json".startswith(arg)


def intended_difference(argv, reference, table):
    """The name of the intended difference that explains the two outcomes, or None."""
    command = next((i for i, a in enumerate(argv) if not a.startswith("-")), len(argv))
    if reference[0] == "reject" and any(map(is_json_flag, argv[command + 1:])):
        moved = ["--json"] + argv[:command + 1] + [a for a in argv[command + 1:] if not is_json_flag(a)]
        if by_reference(moved) == table:
            return "json after the command"
    if reference[0] != "reject" and table[0] == "reject":
        try:
            parse_argv(argv)
        except UsageExit as exc:
            if "error: argument --n: " in exc.text and exc.text.endswith("is not a positive integer\n"):
                return "--n below 1"
    return None


S, B, E = "s.json", "b.json", "e.json"
EDGES = [
    [],
    # unique prefixes, and one ambiguous prefix on each side
    ["subgroup", "hirsch", "--sub", S],
    ["subgroup", "orbits", "--sub", S, "--win=40"],
    ["wreath", "verify", "--sub", S, "--bl", B, "--sam", "3", "--se=2"],
    ["bns", "sigma", "--n", "3", "--c", "t1"],
    ["element", "parse", "--fi", E],
    ["wreath", "embed", "--subgroup", S, "--blocks", B, "--w", "3"],
    ["wreath", "embed", "--s", S, "--blocks", B],
    # "=" forms
    ["bns", "certificate", "--n=3", "--lattice=1,-1,0;0,1,-1"],
    ["classify", "--subgroup=" + S, "--window=7"],
    ["subgroup", "lattice", "--subgroup="],
    ["bns", "type", "--n", "3", "--kernel=t1=t2"],
    ["--json=1", "classify", "--subgroup", S],
    # flags before the action
    ["subgroup", "--subgroup", S, "--window", "3", "level"],
    ["blocks", "--window=5", "find", "--subgroup", S],
    # values that start with "-"
    ["element", "parse", "--word", "g2", "--n", "-1"],
    ["bns", "sigma", "--n", "3", "--m", "-1", "--chi", "t1"],
    ["wreath", "verify", "--subgroup", S, "--blocks", B, "--seed", "-4"],
    ["bns", "sigma", "--n", "3", "--chi", "-t1"],
    ["bns", "sigma", "--n", "3", "--chi", "-t1 + t2"],
    ["bns", "sigma", "--n", "3", "--chi", "-.5"],
    ["wreath", "embed", "--subgroup", S, "--blocks", B, "--word", "-"],
    ["classify", "--subgroup", S, "-"],
    # repeats: the last value, or every value for --file and --word
    ["subgroup", "orbits", "--subgroup", S, "--window", "3", "--window", "5"],
    ["element", "compose", "--file", "a", "--file", "b", "--word", "g2", "--n", "2", "--word", "g3"],
    ["--json", "--json", "classify", "--subgroup", S],
    # "--"
    ["subgroup", "hirsch", "--subgroup", S, "--"],
    ["subgroup", "--", "hirsch", "--subgroup", S],
    ["subgroup", "hirsch", "--subgroup", "--", S],
    ["subgroup", "--subgroup", S, "--", "hirsch"],
    ["--", "subgroup", "hirsch", "--subgroup", S],
    ["classify", "--subgroup=" + S, "--"],
    ["element", "parse", "--word", "--", "--n"],
    # help, at both levels and past other errors
    ["-h"],
    ["--help"],
    ["--he"],
    ["subgroup", "-h"],
    ["wreath", "embed", "--help"],
    ["classify", "--subgroup", S, "-h"],
    ["--bogus", "-h"],
    ["subgroup", "hirsch", "--bogus", "-h"],
    ["subgroup", "hirsch", "--window", "0", "-h"],
    ["wreath", "-h", "--w"],
    ["-h=x"],
    # malformed
    ["subgroup"],
    ["subgroup", "bogus", "--subgroup", S],
    ["classify", "extra", "--subgroup", S],
    ["element", "parse", "--file"],
    ["subgroup", "orbits", "--subgroup", S, "--window", "9" * 5000],
    ["subgroup", "level", "--subgroup", S, "--window", " 7 "],
    ["-x"],
    ["element", "parse", "--word", "g2", "--n", "2", "--bogus=1"],
    ["bns", "sigma", "--n", "3", "--chi", ""],
    # the two intended differences
    ["subgroup", "hirsch", "--subgroup", S, "--json"],
    ["classify", "--json", "--subgroup", S],
    ["--json", "element", "cycles", "--file", E, "--js"],
    ["element", "parse", "--word", "g2", "--n", "0"],
    ["element", "parse", "--word", "g2", "--n", "-2"],
    ["bns", "type", "--n", "0", "--kernel", "t1"],
]


def test_the_table_parser_matches_argparse_but_for_the_intended_differences(tmp_path):
    argvs = grammar(tmp_path) + EDGES
    outcomes, differences = {"accept": 0, "help": 0, "reject": 0}, {}
    for argv in argvs:
        reference, table = by_reference(argv), by_table(argv)
        outcomes[table[0]] += 1
        if reference != table:
            why = intended_difference(argv, reference, table)
            assert why is not None, (argv, reference, table)
            differences.setdefault(why, []).append(argv)
    assert all(outcomes.values()), outcomes
    assert set(differences) == {"json after the command", "--n below 1"}
    assert ["subgroup", "hirsch", "--subgroup", S, "--json"] in differences["json after the command"]
    assert ["element", "parse", "--word", "g2", "--n", "0"] in differences["--n below 1"]
    assert ["bns", "type", "--n", "0", "--kernel", "t1"] in differences["--n below 1"]
