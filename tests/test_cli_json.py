"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

Every payload the CLI emits is caught on its way into ``cli._emit`` and
written both ways; the comparison is on the payload object itself, so a
difference that a ``json.loads`` round trip would hide still fails.
``element cycles`` hands the writer its cycles as runs, which ``json.dumps``
cannot write, so its output is compared with the same payload holding the
cycles as points.

Inputs the CLI cannot read (a file it cannot open or load as JSON, numbers
past Python's digit limit, characters whose coefficients pass
``bns.CHARACTER_DIGIT_BOUND``, windows past ``cli.WINDOW_POINT_BOUND``
points and ``wreath verify --samples`` past ``cli.SAMPLE_BOUND``) end in
exit 2 with a message, never in a traceback.
"""

import json
import time
from pathlib import Path

import pytest

from houghton_kit import cli
from houghton_kit.blocks import PROOF_CAVEAT, WINDOW_CAVEAT
from houghton_kit.bns import CHARACTER_DIGIT_BOUND
from houghton_kit.cli import SAMPLE_BOUND, WINDOW_POINT_BOUND, _json_text, cli_main
from houghton_kit.elements import (
    HoughtonElement,
    cycle_structure,
    from_cycles,
    generator,
    houghton_generators,
    transposition,
)
from houghton_kit.rays import RayPoint
from houghton_kit.subgroups import GeneratedSubgroup, delta_k


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def pair_group():
    g2sq = generator(2, 2) ** 2
    swap = transposition(2, (1, 0), (1, 1))
    pair_swap = from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]])
    return GeneratedSubgroup.from_elements(2, [g2sq, swap, pair_swap])


def emitting_commands(tmp_path):
    """One argv per ``_emit`` call site, some sites twice for their other shapes."""
    spin = transposition(3, (1, 0), (2, 7)).compose(generator(3, 2))
    f = {
        "cycles": write(tmp_path, "cycles.json", spin.to_json_dict()),
        "no-cycles": write(tmp_path, "gen.json", generator(3, 3).to_json_dict()),
        "swap": write(tmp_path, "swap.json", transposition(2, (1, 0), (1, 1)).to_json_dict()),
        "h3": write(tmp_path, "h3.json", GeneratedSubgroup(3, tuple(houghton_generators(3))).to_json_dict()),
        "delta": write(tmp_path, "delta.json", delta_k(3, 2).to_json_dict()),
        "pair": write(tmp_path, "pair.json", pair_group().to_json_dict()),
        "blocks": write(tmp_path, "blocks.json", [[[1, 0], [1, 1]]]),
        "finitary": write(
            tmp_path, "finitary.json",
            GeneratedSubgroup(3, (from_cycles(3, [[(1, 0), (1, 1), (1, 2)]]),)).to_json_dict(),
        ),
    }
    return [
        ["element", "parse", "--file", f["cycles"]],
        ["element", "parse", "--word", "g2^2 * (1:0 2:3)", "--n", "3"],
        ["element", "compose", "--file", f["swap"], "--file", f["swap"]],
        ["element", "cycles", "--file", f["cycles"]],
        ["element", "cycles", "--file", f["no-cycles"]],
        ["subgroup", "lattice", "--subgroup", f["delta"]],
        ["subgroup", "lattice", "--subgroup", f["finitary"]],
        ["subgroup", "hirsch", "--subgroup", f["h3"]],
        ["subgroup", "level", "--subgroup", f["h3"]],
        ["subgroup", "level", "--subgroup", f["delta"]],
        ["subgroup", "orbits", "--subgroup", f["delta"], "--window", "12"],
        ["blocks", "find", "--subgroup", f["pair"], "--window", "40"],
        ["blocks", "find", "--subgroup", f["delta"], "--window", "20"],
        ["blocks", "verify", "--subgroup", f["pair"], "--blocks", f["blocks"]],
        ["blocks", "quotient", "--subgroup", f["pair"], "--blocks", f["blocks"], "--window", "60"],
        ["wreath", "embed", "--subgroup", f["pair"], "--blocks", f["blocks"]],
        ["wreath", "embed", "--subgroup", f["pair"], "--blocks", f["blocks"], "--word", "g2^2"],
        ["wreath", "verify", "--subgroup", f["pair"], "--blocks", f["blocks"],
         "--samples", "20", "--seed", "3"],
        ["bns", "sigma", "--n", "3", "--chi", "t1 - 2 t2", "--m", "2"],
        ["bns", "type", "--n", "3", "--kernel", "t1 + 2 t2"],
        ["bns", "certificate", "--n", "3", "--lattice", "1,2,-3;2,1,-3"],
        ["bns", "certificate", "--subgroup", f["delta"], "--n", "3"],
        ["classify", "--subgroup", f["delta"]],
        ["classify", "--subgroup", f["pair"]],
        ["classify", "--subgroup", f["finitary"]],
    ]


def test_every_cli_payload_is_written_as_json_dumps_writes_it(tmp_path, capsys, monkeypatch):
    payloads = []
    emit = cli._emit

    def caught(args, payload, text_lines):
        payloads.append(payload)
        emit(args, payload, text_lines)

    monkeypatch.setattr(cli, "_emit", caught)
    commands = emitting_commands(tmp_path)
    # every call site of _emit: 3 element, 4 subgroup, 3 blocks, 2 wreath, 3 bns, classify
    assert len({tuple(argv[:2]) for argv in commands}) == 16
    for count, argv in enumerate(commands, start=1):
        capsys.readouterr()
        assert cli_main(["--json", *argv]) == 0, argv
        assert len(payloads) == count
        payload = payloads[-1]
        if argv[:2] == ["element", "cycles"]:
            # the cycles go out as runs, which json.dumps cannot write: compare
            # with the same payload holding the cycles as points
            elt = HoughtonElement.from_json_dict(json.loads(Path(argv[-1]).read_text()))
            payload = {**payload, "finite_cycles": list(cycle_structure(elt).finite_cycles)}
        assert _json_text(payload) == dumps(payload), argv
        assert capsys.readouterr().out == dumps(payload) + "\n"
    cycles, no_cycles = payloads[3], payloads[4]
    assert cycles["finite_cycles"] and no_cycles["finite_cycles"] == []
    assert all(type(ray) is int and type(run) is range and run
               for c in cycles["finite_cycles"] for ray, run in c)
    pair_find, delta_find = payloads[11], payloads[12]
    assert pair_find["caveat"] == WINDOW_CAVEAT
    assert delta_find == {"systems": [], "caveat": PROOF_CAVEAT}


EDGE_PAYLOADS = [
    {},
    [],
    {"empty": [], "nothing": {}, "none": None, "yes": True, "no": False},
    {"text": "café ☃ \U0001d11e \"quoted\" back\\slash\n\ttab \x00  "},
    {"b": 1, "a": 2, "A": 3, "_": 4, "é": 5, "": 6},
    {"pairs": [[1, 2], [-3, 40], [0, 10**20]], "empty_pairs": [[]], "one": [[7, 8]]},
    {"near_pairs": [[1, 2], [True, 3]], "floats": [[1.0, 2]], "triple": [[1, 2, 3]]},
    {"tuples": [(1, 2), (3, 4)], "tuple": (1, 2), "mixed": [[1, 2], (3, 4)]},
    {"nested": [[[1, 0], [2, 5]], [], [[3, 3]]], "deep": {"x": {"y": [{"z": []}]}}},
    {"int_keys": {2: "b", 1: "a"}, "scalars": [1.5, -0.0, None, True, "s", 10**30]},
    {"cycles": [[[p % 5 + 1, p] for p in range(200)]], "count": 0},
    {"finite_cycles": [(RayPoint(1, 0), RayPoint(2, 7)), (RayPoint(3, 10**6),)], "none": ()},
    {"point": RayPoint(2, 3), "mixed": (RayPoint(1, 0), [1, 2], (3, 4)), "ints": (5, 6)},
    {"systems": [], "caveat": PROOF_CAVEAT},
    [None, False, [], {}, "", 0, [[]], [{}]],
    "top-level string",
    12345,
    None,
]


@pytest.mark.parametrize("payload", EDGE_PAYLOADS, ids=range(len(EDGE_PAYLOADS)))
def test_edge_payloads_are_written_as_json_dumps_writes_them(payload):
    assert _json_text(payload) == dumps(payload)


def test_cycles_of_runs_are_written_without_json_dumps(monkeypatch):
    # `element cycles` hands over each cycle as its runs (ray, positions); the
    # writer joins each run's positions, with no fallback to the encoder
    runs = [((1, range(0, 4)), (2, range(9, 1, -4))), ((3, range(5, 6)),)]
    points = [tuple(RayPoint(ray, pos) for ray, run in c for pos in run) for c in runs]
    payload = {"finite_cycles": runs, "infinite_cycles": 1}
    want = dumps({**payload, "finite_cycles": points})

    def refused(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refused)
    assert _json_text(payload) == want


# -- unreadable input -----------------------------------------------------------


def unreadable_inputs(tmp_path):
    """Per case, argv lists that each hand the CLI one input it cannot read."""
    pair = write(tmp_path, "pair.json", pair_group().to_json_dict())
    blocks = write(tmp_path, "blocks.json", [[[1, 0], [1, 1]]])
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"n": 2, "name": "caf\u00e9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_t = tmp_path / "long_t.json"
    long_t.write_text('{"n": 2, "t": [' + "9" * 5000 + ', -1], "threshold": 0, "head": []}')
    long_threshold = tmp_path / "long_threshold.json"
    long_threshold.write_text('{"n": 2, "t": [0, 0], "threshold": ' + "9" * 5000 + ', "head": []}')

    def every_file_flag(path):
        return [
            ["element", "parse", "--file", str(path)],
            ["subgroup", "lattice", "--subgroup", str(path)],
            ["blocks", "verify", "--subgroup", pair, "--blocks", str(path)],
        ]

    return {
        "not-utf-8": every_file_flag(latin1),
        "directory": every_file_flag(tmp_path),
        "missing": every_file_flag(tmp_path / "missing.json"),
        "nested-100000-deep": every_file_flag(deep),
        "long-digits": [
            ["element", "parse", "--file", str(long_t)],
            ["element", "parse", "--file", str(long_threshold)],
            ["wreath", "embed", "--subgroup", pair, "--blocks", blocks, "--word", "g2^" + "9" * 5000],
            ["element", "parse", "--n", "2", "--word", "g2^" + "9" * 5000],
            ["element", "parse", "--n", "2", "--word", "(1:" + "9" * 5000 + " 1:0)"],
            ["element", "parse", "--n", "2", "--word", "g" + "9" * 5000],
            ["bns", "sigma", "--n", "3", "--chi", "t1 - " + "9" * 5000 + " t2"],
            ["bns", "type", "--n", "3", "--kernel", "t" + "9" * 5000],
        ],
    }


@pytest.mark.parametrize(
    "case", ["not-utf-8", "directory", "missing", "nested-100000-deep", "long-digits"]
)
def test_unreadable_input_exits_2_with_a_message(case, tmp_path, capsys):
    for argv in unreadable_inputs(tmp_path)[case]:
        capsys.readouterr()
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), (argv, err)
        if case != "long-digits":
            assert f"cannot read {argv[-1]}" in err, err


def test_a_word_number_is_bounded_by_its_value_not_its_digits(capsys):
    outputs = []
    for word in ("g2^2", "g2^" + "0" * 20 + "2"):
        assert cli_main(["element", "parse", "--n", "2", "--word", word]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_a_character_whose_coefficients_pass_the_digit_bound_exits_2(capsys):
    # each number parses under Python's digit limit, but the canonical
    # coefficient of t3, (a^2 + 1) / a, would print in 8000 digits
    a = "9" * 4000
    many = " + ".join(f"1/{d} t1" for d in range(2, 3000))  # the lcm of 2..2999 passes the bound
    for chi in (f"t1 - {a} t2 + 1/{a} t3", f"t1 - {'9' * 1001} t2", many):
        for argv in (["bns", "sigma", "--n", "5", "--chi", chi],
                     ["bns", "type", "--n", "5", "--kernel", chi]):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv[:5]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"more than {CHARACTER_DIGIT_BOUND} digits" in err


def test_a_character_at_the_digit_bound_is_written_in_full(capsys):
    a = "9" * CHARACTER_DIGIT_BOUND
    assert cli_main(["--json", "bns", "sigma", "--n", "3", "--chi", f"t1 - {a} t2 + 1/{a} t3"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["chi"]["coeffs"]
    assert coeffs[1:] == ["0", f"{int(a) ** 2 + 1}/{a}"]


def test_a_window_past_the_point_bound_exits_2_before_any_closure(tmp_path, capsys):
    # on the pair group (n = 2), --window 10000 is exactly WINDOW_POINT_BOUND points
    path = write(tmp_path, "pair.json", pair_group().to_json_dict())
    start = time.perf_counter()
    assert cli_main(["classify", "--subgroup", path, "--window", "10000000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bound {WINDOW_POINT_BOUND}" in err
    assert 2 * 10000 == WINDOW_POINT_BOUND
    assert cli_main(["classify", "--subgroup", path, "--window", "10000"]) == 0


def test_samples_past_the_bound_exit_2_before_the_context_is_built(tmp_path, capsys):
    spath = write(tmp_path, "pair.json", pair_group().to_json_dict())
    bpath = write(tmp_path, "blocks.json", [[[1, 0], [1, 1]]])
    argv = ["wreath", "verify", "--subgroup", spath, "--blocks", bpath, "--samples"]
    start = time.perf_counter()
    assert cli_main(argv + [str(SAMPLE_BOUND + 1)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bound {SAMPLE_BOUND}" in err
    assert cli_main(argv + ["20"]) == 0
