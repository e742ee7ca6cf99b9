"""A seeded grammar over every CLI subcommand: no argv ends in a traceback.

The grammar draws each subcommand's flags from pools that mix valid and
malformed element, subgroup and block files, words, lattices, characters and
numbers, and sometimes drops a flag or adds a stray one.  Every call must
return 0, 2 or 3 without raising, and every 2 or 3 must say why on stderr.
Windows stay at 100 or less and samples at 20 or less, so that the whole
grammar runs in seconds; the slowest call's wall time is reported, not
asserted.
"""

import json
import random
import time

from houghton_kit.cli import cli_main
from houghton_kit.elements import from_cycles, generator, houghton_generators, transposition
from houghton_kit.subgroups import GeneratedSubgroup, delta_k

SEED = 2028
CALLS = 400


def pair_group():
    g2sq = generator(2, 2) ** 2
    swap = transposition(2, (1, 0), (1, 1))
    pair_swap = from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]])
    return GeneratedSubgroup.from_elements(2, [g2sq, swap, pair_swap])


def input_files(tmp_path):
    """Per kind (elements, subgroups, blocks), a (valid, malformed) pair of path lists."""

    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def dump(name, data):
        return write(name, json.dumps(data))

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"n": 2, "name": "café"}'.encode("latin-1"))
    unreadable = [
        str(latin1),
        str(tmp_path),
        str(tmp_path / "missing.json"),
        write("truncated.json", '{"n": 3, "generators": ['),
        write("not-json.json", "g2 * g3"),
        write("deep.json", "[" * 100_000 + "]" * 100_000),
        write("empty.json", ""),
        dump("number.json", 7),
        dump("list.json", [1, 2, 3]),
    ]
    spin = transposition(3, (1, 0), (2, 7)).compose(generator(3, 2))
    elements = [
        dump("spin.json", spin.to_json_dict()),
        dump("g3.json", generator(3, 3).to_json_dict()),
        dump("swap.json", transposition(2, (1, 0), (1, 1)).to_json_dict()),
    ], [
        dump("not-zero-sum.json", {"n": 2, "t": [1, 0], "threshold": 0, "head": []}),
        dump("not-a-bijection.json",
             {"n": 2, "t": [0, 0], "threshold": 2, "head": [[[1, 0], [1, 1]], [[1, 1], [1, 1]]]}),
        dump("string-n.json", {"n": "2", "t": [0, 0], "threshold": 0, "head": []}),
        dump("far-threshold.json", {"n": 2, "t": [0, 0], "threshold": 10**9, "head": []}),
        write("long-t.json", '{"n": 2, "t": [' + "9" * 5000 + ', -1], "threshold": 0, "head": []}'),
    ] + unreadable
    finitary = GeneratedSubgroup(3, (from_cycles(3, [[(1, 0), (1, 1), (1, 2)]]),))
    subgroups = [
        dump("delta.json", delta_k(3, 2).to_json_dict()),
        dump("pair.json", pair_group().to_json_dict()),
        dump("h3.json", GeneratedSubgroup(3, tuple(houghton_generators(3))).to_json_dict()),
        dump("finitary.json", finitary.to_json_dict()),
        dump("trivial.json", {"n": 2, "generators": []}),
    ], [
        dump("mixed-n.json", {"n": 3, "generators": [generator(2, 2).to_json_dict()]}),
        dump("labels.json", {"n": 2, "generators": [], "labels": ["a"]}),
        dump("n-zero.json", {"n": 0, "generators": []}),
        dump("too-many-rays.json", {"n": 65, "generators": []}),
        dump("bad-generator.json", {"n": 2, "generators": [{"n": 2}]}),
    ] + unreadable
    blocks = [
        dump("pairs.json", [[[1, 0], [1, 1]]]),
        dump("pairs-object.json", {"blocks": [[[1, 0], [1, 1]], [[1, 2], [1, 3]]]}),
        dump("singletons.json", [[[1, 0]], [[2, 0]], [[3, 0]]]),
    ], [
        dump("far.json", [[[1, 0], [1, 10**6]]]),
        dump("ray-zero.json", [[[0, 0], [1, 1]]]),
        dump("overlap.json", [[[1, 0], [1, 1]], [[1, 1], [1, 2]]]),
        dump("no-key.json", {"systems": []}),
        dump("triples.json", [[[1, 0, 0]]]),
        dump("bool-points.json", [[[True, 0]]]),
    ] + unreadable
    return elements, subgroups, blocks


# (valid, malformed) pools; a valid value can still fail with the rest of its argv
NUMBERS = ["1", "2", "3", "5"], ["0", "-1", "-7", "x", "", "1e3", "3.5", "9" * 5000]
WINDOWS = ["3", "12", "20", "40", "60", "100"], ["0", "-5", "abc", "1", "100000"]
RAYS = ["2", "3", "4"], ["0", "-1", "65", "x"]
WORDS = [
    "g2", "g3^-1", "g2^2 * (1:0 1:1)", "(1:0 2:3)^-1", "g2 g3 g2^-1", "g2^" + "0" * 30 + "3",
    "g2^2",
], [
    "*", "", " ", "g", "g0", "g9", "g2^", "(1:0", "((", "(1:0 1:0)", "(0:1 1:2)",
    "g2^99999999", "(1:999999 1:0)", "g2^" + "9" * 5000, "(1:" + "9" * 5000 + " 1:0)",
    "g" + "9" * 5000, "h2", "g2 ^ 2",
]
LATTICES = ["1,-1,0;0,1,-1", "1,2,-3;2,1,-3", "2,-2,0;0,2,-2", "1 -1 0; 0 1 -1"], [
    "1,-1", "1,2", "a,b,c", "1,1,1", "", ";;", "9" * 5000 + ",-1,0",
]
NINES = "9" * 4000
CHARACTERS = ["t1 - t2", "2/3 t1 + t4", "t1", "t1 + t2", "3 * t2 - t3"], [
    "t0", "t9", "1/0 t1", "t1 + t1 - 2 t1", "t1 -", "x", "", f"t1 - {NINES} t2 + 1/{NINES} t3",
    " + ".join(f"1/{d} t1" for d in range(2, 3000)), "t" + "9" * 5000,
]


def argv_of(rng, files):
    """One argv from the grammar: each value valid with probability 0.7."""
    elements, subgroups, blocks = files

    def draw(pool):
        return rng.choice(pool[0] if rng.random() < 0.7 else pool[1])

    command = rng.choice(["element", "subgroup", "blocks", "wreath", "bns", "classify", "other"])
    argv = [] if rng.random() < 0.8 else ["--json"]
    flags = []  # (flag, value) pairs, some dropped below
    if command == "element":
        argv += ["element", draw((["parse", "compose", "cycles"], ["invert"]))]
        flags += [("--file", draw(elements)) for _ in range(rng.randint(0, 2))]
        flags += [("--word", draw(WORDS)) for _ in range(rng.randint(0, 2))]
        flags.append(("--n", draw(RAYS)))
    elif command == "subgroup":
        argv += ["subgroup", draw((["lattice", "hirsch", "level", "orbits"], ["index"]))]
        flags += [("--subgroup", draw(subgroups)), ("--window", draw(WINDOWS))]
    elif command == "blocks":
        argv += ["blocks", rng.choice(["find", "verify", "quotient"])]
        flags += [("--subgroup", draw(subgroups)), ("--blocks", draw(blocks))]
        flags.append(("--window", draw(WINDOWS)))
    elif command == "wreath":
        argv += ["wreath", rng.choice(["embed", "verify"])]
        flags += [("--subgroup", draw(subgroups)), ("--blocks", draw(blocks))]
        flags += [("--window", draw(WINDOWS)), ("--word", draw(WORDS))]
        flags += [("--samples", draw((["1", "3", "20"], ["0", "-2", "x"]))), ("--seed", draw(NUMBERS))]
    elif command == "bns":
        argv += ["bns", rng.choice(["sigma", "type", "certificate"])]
        flags += [("--n", draw(RAYS)), ("--chi", draw(CHARACTERS)), ("--m", draw(NUMBERS))]
        flags += [("--kernel", draw(CHARACTERS)), ("--lattice", draw(LATTICES))]
        if rng.random() < 0.3:
            flags.append(("--subgroup", draw(subgroups)))
    elif command == "classify":
        argv += ["classify"]
        flags += [("--subgroup", draw(subgroups)), ("--window", draw(WINDOWS))]
    else:
        argv += [rng.choice(["elements", "-x", "--window", "help"])]
    for flag, value in flags:
        if rng.random() < 0.9:
            argv += [flag, value]
    if rng.random() < 0.05:
        argv.append(rng.choice(["--bogus", "extra", "--n"]))
    return argv


def grammar(tmp_path):
    """The fixed cases, then seeded argv lists up to ``CALLS`` in all."""
    files = input_files(tmp_path)
    fixed = [
        ["bns", "sigma", "--n", "5", "--chi", f"t1 - {NINES} t2 + 1/{NINES} t3"],
        ["bns", "type", "--n", "5", "--kernel", f"t1 - {NINES} t2 + 1/{NINES} t3"],
        ["subgroup", "orbits", "--subgroup", files[1][0][0], "--window", "100"],
        ["classify", "--subgroup", files[1][0][1], "--window", "40"],
        ["wreath", "verify", "--subgroup", files[1][0][1], "--blocks", files[2][0][0], "--samples", "5"],
        [],
    ]
    rng = random.Random(SEED)
    return fixed + [argv_of(rng, files) for _ in range(CALLS - len(fixed))]


def test_every_argv_of_the_grammar_exits_0_2_or_3_with_a_message(tmp_path, capsys):
    outcomes, faults, slowest = {0: 0, 2: 0, 3: 0}, [], (0.0, None)
    for argv in grammar(tmp_path):
        capsys.readouterr()
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except (Exception, SystemExit) as exc:  # a traceback, or argparse exiting
            faults.append((argv, repr(exc)[:200]))
            continue
        elapsed = time.perf_counter() - start
        slowest = max(slowest, (elapsed, argv), key=lambda x: x[0])
        err = capsys.readouterr().err
        if code not in outcomes:
            faults.append((argv, f"exit {code!r}"))
        elif code and not err.strip():
            faults.append((argv, f"exit {code} with nothing on stderr"))
        else:
            outcomes[code] += 1
    brief = lambda argv: [a if len(a) < 60 else a[:20] + "..." for a in argv or ()]
    assert [(brief(argv), why) for argv, why in faults] == []
    assert all(outcomes.values()), outcomes  # the grammar reaches every exit code
    with capsys.disabled():
        print(f"\ncli grammar: {CALLS} calls, exits {outcomes}, slowest "
              f"{slowest[0] * 1000:.1f} ms: {brief(slowest[1])}")
