import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from houghton_kit import bns, cli, subgroups
from houghton_kit.blocks import PROOF_CAVEAT, WINDOW_CAVEAT
from houghton_kit.classify import classify
from houghton_kit.cli import cli_main
from houghton_kit.elements import from_cycles, generator, houghton_generators, identity, transposition
from houghton_kit.subgroups import GeneratedSubgroup, delta_k, element_with_translation

REPO = Path(__file__).resolve().parents[1]


def write_subgroup(tmp_path, group, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(group.to_json_dict()))
    return str(path)


def h3():
    return GeneratedSubgroup.from_elements(3, houghton_generators(3))


# -- classifier -----------------------------------------------------------------


def test_classify_full_group():
    report = classify(h3())
    assert report.full_hirsch
    assert report.level["status"] == "level"
    assert report.verdict == "type F_2, not FP_3, max-n"
    assert not report.conditional


def test_classify_delta2():
    report = classify(delta_k(3, 2))
    assert report.full_hirsch
    assert report.level["status"] == "level"
    assert report.congruence_lifting == {"status": True, "modulus": 2}
    assert report.orbit_summary["class_count"] == 2
    assert report.orbit_summary["stabilized"]
    assert report.verdict == "type F_2, not FP_3, max-n"
    assert report.certificate["status"] == "certified"


def test_classify_finitary_subgroup_conditional():
    g = GeneratedSubgroup.from_elements(
        3, [from_cycles(3, [[(1, 0), (1, 1), (1, 2)]])]
    )
    report = classify(g)
    assert report.hirsch == 0
    assert not report.full_hirsch
    assert report.conditional
    assert "conditional" in report.verdict
    assert "FP_3" in report.verdict


def test_classify_h2_dichotomy():
    g = GeneratedSubgroup.from_elements(2, houghton_generators(2))
    report = classify(g)
    assert report.full_hirsch
    assert report.conditional
    assert report.verdict == "finitely generated, max-n; not FP_2 unless finite-by-Z"


def non_level_group():
    h = GeneratedSubgroup.from_elements(3, houghton_generators(3))
    return GeneratedSubgroup.from_elements(
        3, [element_with_translation(h, (1, 2, -3)), element_with_translation(h, (2, 1, -3))]
    )


def test_classify_non_level_reports_reduction():
    report = classify(non_level_group())
    assert report.full_hirsch
    assert report.level["status"] == "not-level"
    assert report.level["witness_pair"] == [2, 1]
    assert report.level["finite_index_level_reduction"]["modulus"] == 3
    assert report.certificate["status"] == "no-certificate"
    assert report.verdict == "type F_2, not FP_3, max-n"


@pytest.mark.parametrize("group, runs", [
    (lambda: delta_k(3, 2), 1),
    (non_level_group, 1),
    (h3, 1),
    (lambda: GeneratedSubgroup(3, (from_cycles(3, [[(1, 0), (1, 1), (1, 2)]]),)), 1),
    (lambda: delta_k(2, 2), 0),
], ids=["level", "not-level", "H_3", "finitary", "n=2"])
def test_classify_runs_the_level_test_at_most_once(monkeypatch, group, runs):
    # at full rank with n >= 3 the level section is read off the certificate
    group = group()
    want = classify(group).to_json_dict()
    calls = []

    def counted(lattice):
        calls.append(lattice)
        return subgroups.is_level(lattice)

    monkeypatch.setattr(sys.modules["houghton_kit.classify"], "is_level", counted)
    monkeypatch.setattr(bns, "is_level", counted)
    assert classify(group).to_json_dict() == want
    assert len(calls) == runs


def test_report_json_roundtrip():
    report = classify(delta_k(3, 2))
    data = report.to_json_dict()
    assert data["schema"] == "houghton-kit/1"
    again = json.loads(json.dumps(data))
    assert again == data


def test_classify_deterministic():
    a = classify(delta_k(3, 2)).to_json_dict()
    b = classify(delta_k(3, 2)).to_json_dict()
    assert a == b


# -- CLI ------------------------------------------------------------------------


def test_cli_element_cycles(tmp_path, capsys):
    path = tmp_path / "g2.json"
    path.write_text(generator(2, 2).to_json())
    assert cli_main(["element", "cycles", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "infinite cycles: 1" in out


def test_cli_element_parse_word(capsys):
    assert cli_main(["element", "parse", "--word", "g2^2", "--n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["t"] == [2, -2]


def test_cli_element_compose(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(generator(3, 2).to_json())
    b = tmp_path / "b.json"
    b.write_text(generator(3, 3).to_json())
    assert cli_main(["element", "compose", "--file", str(a), "--file", str(b)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["t"] == [2, -1, -1]


def test_cli_subgroup_reports(tmp_path, capsys):
    path = write_subgroup(tmp_path, delta_k(3, 2))
    assert cli_main(["--json", "subgroup", "lattice", "--subgroup", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["index_in_zero_sum"] == 4
    assert cli_main(["--json", "subgroup", "hirsch", "--subgroup", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"hirsch": 2, "full": True}
    assert cli_main(["--json", "subgroup", "level", "--subgroup", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["level"] is True and data["modulus"] == 2
    assert cli_main(["--json", "subgroup", "orbits", "--subgroup", path, "--window", "30"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class_count"] == 2


def test_cli_blocks_roundtrip(tmp_path, capsys):
    g2sq = generator(2, 2) ** 2
    swap = transposition(2, (1, 0), (1, 1))
    pair_swap = from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]])
    group = GeneratedSubgroup.from_elements(2, [g2sq, swap, pair_swap])
    spath = write_subgroup(tmp_path, group)
    assert cli_main(["--json", "blocks", "find", "--subgroup", spath, "--window", "40"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert found["systems"] == [[[[1, 0], [1, 1]]]]
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps(found["systems"][0]))
    assert cli_main(
        ["--json", "blocks", "verify", "--subgroup", spath, "--blocks", str(bpath)]
    ) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert cli_main(
        ["--json", "blocks", "quotient", "--subgroup", spath, "--blocks", str(bpath), "--window", "60"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["induced"][0]["t"] == [1, -1]
    assert data["kernel_generators"] == [1]


def test_cli_blocks_find_prints_the_proof_caveat_or_the_window_caveat(tmp_path, capsys):
    h4 = write_subgroup(tmp_path, GeneratedSubgroup.from_elements(4, houghton_generators(4)))
    # the proof needs no window, so even a window below the generator margin holds
    for window in ("40", "2"):
        assert cli_main(["blocks", "find", "--subgroup", h4, "--window", window]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "found 0 block system(s)",
            f"caveat: {PROOF_CAVEAT}",
        ]
    assert cli_main(["--json", "blocks", "find", "--subgroup", h4, "--window", "40"]) == 0
    assert json.loads(capsys.readouterr().out) == {"systems": [], "caveat": PROOF_CAVEAT}
    g2sq = generator(2, 2) ** 2
    swap = transposition(2, (1, 0), (1, 1))
    pair_swap = from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]])
    pair = write_subgroup(tmp_path, GeneratedSubgroup.from_elements(2, [g2sq, swap, pair_swap]))
    assert cli_main(["blocks", "find", "--subgroup", pair, "--window", "40"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"caveat: {WINDOW_CAVEAT}"
    assert cli_main(["--json", "blocks", "find", "--subgroup", pair, "--window", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["caveat"] == WINDOW_CAVEAT


def test_cli_blocks_verify_below_the_generator_margin_exits_3(tmp_path, capsys):
    spath = write_subgroup(tmp_path, delta_k(3, 2))
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps([[[1, 0]]]))
    argv = ["blocks", "verify", "--subgroup", spath, "--blocks", str(bpath), "--window", "3"]
    assert cli_main(argv) == 3
    assert "hint: 8" in capsys.readouterr().err


def test_cli_wreath(tmp_path, capsys):
    g2sq = generator(2, 2) ** 2
    swap = transposition(2, (1, 0), (1, 1))
    pair_swap = from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]])
    group = GeneratedSubgroup.from_elements(2, [g2sq, swap, pair_swap])
    spath = write_subgroup(tmp_path, group)
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps([[[1, 0], [1, 1]]]))
    assert cli_main(
        ["--json", "wreath", "embed", "--subgroup", spath, "--blocks", str(bpath)]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["embedded"]) == 3
    assert cli_main(
        [
            "--json", "wreath", "verify", "--subgroup", spath, "--blocks", str(bpath),
            "--samples", "40", "--seed", "1",
        ]
    ) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_bns(capsys):
    assert cli_main(["bns", "sigma", "--n", "3", "--chi", "t1", "--m", "1"]) == 0
    assert "not in Sigma^1" in capsys.readouterr().out
    assert cli_main(["--json", "bns", "type", "--n", "4", "--kernel", "t1+t2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type_f_max"] == 1
    assert cli_main(
        ["--json", "bns", "certificate", "--n", "3", "--lattice", "1,2,-3;2,1,-3"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certified"] is False and data["offending"] == [2, 1]


def test_cli_classify_json(tmp_path, capsys):
    path = write_subgroup(tmp_path, delta_k(3, 2))
    assert cli_main(["--json", "classify", "--subgroup", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "houghton-kit/1"
    assert data["verdict"] == "type F_2, not FP_3, max-n"
    assert data["orbit_summary"]["class_count"] == 2


def transposition_file(tmp_path, pos, name="far.json"):
    """(1:0 1:pos) as an element file: head position pos, threshold pos + 1."""
    path = tmp_path / name
    path.write_text(json.dumps(transposition(2, (1, 0), (1, pos)).to_json_dict()))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["element", "parse", "--file", "FAR"],
        ["subgroup", "lattice", "--subgroup", "GROUP"],
        ["element", "parse", "--n", "2", "--word", "g2^100001"],
        ["element", "parse", "--n", "2", "--word", "(1:0 1:1)^-100001"],
        ["element", "compose", "--n", "2", "--word", "g2 * (1:100001 2:0)"],
        ["wreath", "embed", "--subgroup", "DELTA", "--blocks", "BLOCKS", "--word", "(1:0 1:100001)"],
    ],
    ids=["element-file", "subgroup-file", "exponent", "negative-exponent", "cycle", "wreath"],
)
def test_cli_input_past_the_position_bound_exits_2(tmp_path, capsys, argv):
    # threshold 10^5 + 1 (head position 10^5); exponents and positions 10^5 + 1
    far = transposition_file(tmp_path, 10**5)
    group = write_subgroup(
        tmp_path, GeneratedSubgroup.from_elements(2, [transposition(2, (1, 0), (1, 10**5))])
    )
    delta = write_subgroup(tmp_path, delta_k(3, 2), "delta.json")
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[[1, 0]], [[1, 1]]]))
    paths = {"FAR": far, "GROUP": group, "DELTA": delta, "BLOCKS": str(blocks)}
    assert cli_main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the command-line bound 100000" in captured.err


def test_cli_head_image_past_the_position_bound_exits_2(tmp_path, capsys):
    # threshold exactly 10^5, but the head maps (1:99998) to (1:100001)
    g = (generator(2, 2) ** 2).compose(transposition(2, (1, 100000), (1, 100001)))
    assert g.threshold == 10**5
    path = tmp_path / "image.json"
    path.write_text(json.dumps(g.to_json_dict()))
    assert cli_main(["element", "parse", "--file", str(path)]) == 2
    assert "head position 100001 is above the command-line bound" in capsys.readouterr().err


def test_cli_input_at_the_position_bound_is_accepted(tmp_path, capsys):
    # threshold exactly 10^5, a cycle position and an exponent of exactly 10^5
    at = transposition_file(tmp_path, 10**5 - 1)
    assert cli_main(["--json", "element", "parse", "--file", at]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 10**5
    word = "(1:0 1:1)^100000 * (1:0 1:100000)"
    assert cli_main(["--json", "element", "parse", "--n", "2", "--word", word]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 10**5 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["element", "parse", "--n", "10000000", "--word", "g2"],
        ["element", "compose", "--n", "65", "--word", "g2"],
        ["element", "parse", "--file", "ELEMENT"],
        ["element", "cycles", "--file", "ELEMENT"],
        ["subgroup", "orbits", "--subgroup", "GROUP"],
        ["blocks", "find", "--subgroup", "GROUP"],
        ["wreath", "embed", "--subgroup", "GROUP", "--blocks", "BLOCKS"],
        ["classify", "--subgroup", "GROUP"],
        ["bns", "sigma", "--n", "65", "--chi", "t1"],
        ["bns", "type", "--n", "65", "--kernel", "t1"],
        ["bns", "certificate", "--n", "65", "--lattice", "1,-1"],
        ["bns", "certificate", "--n", "3", "--subgroup", "GROUP"],
    ],
    ids=["parse-word", "compose-word", "element-file", "cycles-file", "orbits", "blocks",
         "wreath", "classify", "sigma", "type", "certificate-lattice", "certificate-subgroup"],
)
def test_cli_ray_count_past_the_ray_bound_exits_2(tmp_path, capsys, argv):
    # an element file on 65 rays, and a subgroup file on 10^7 rays with no generators
    element = tmp_path / "element.json"
    element.write_text(json.dumps(identity(65).to_json_dict()))
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"n": 10**7, "generators": []}))
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[[1, 0]]]))
    paths = {"ELEMENT": str(element), "GROUP": str(group), "BLOCKS": str(blocks)}
    assert cli_main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is above the command-line bound 64" in captured.err


def test_cli_ray_count_at_the_ray_bound_is_accepted(tmp_path, capsys):
    assert cli.RAY_BOUND == 64
    path = write_subgroup(tmp_path, GeneratedSubgroup.from_elements(64, houghton_generators(64)))
    assert cli_main(["--json", "subgroup", "orbits", "--subgroup", path]) == 0
    assert json.loads(capsys.readouterr().out)["class_count"] == 1
    assert cli_main(["--json", "element", "parse", "--n", "64", "--word", "g64"]) == 0
    assert json.loads(capsys.readouterr().out)["t"][63] == -1
    assert cli_main(["bns", "type", "--n", "64", "--kernel", "t1 - t64"]) == 0
    assert capsys.readouterr().out == "type F_62, not F_63\n"


def test_cli_invalid_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "t": [1, 0], "threshold": 0, "head": []}))
    assert cli_main(["element", "cycles", "--file", str(bad)]) == 2
    bad.write_text("not json")
    assert cli_main(["subgroup", "lattice", "--subgroup", str(bad)]) == 2
    assert cli_main(["element", "parse", "--word", "h1", "--n", "2"]) == 2
    assert cli_main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value",
    [("n", 2.5), ("n", "2"), ("t", [1.5, -1.5]), ("threshold", 1.9), ("head", [[[2, 0, 7], [1, 0]]])],
    ids=["n-float", "n-string", "t-floats", "threshold-float", "head-triple"],
)
def test_cli_element_parse_rejects_non_int_fields(tmp_path, capsys, field, value):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**generator(2, 2).to_json_dict(), field: value}))
    assert cli_main(["element", "parse", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{field}'" in captured.err


def test_cli_append_lists_do_not_leak_between_calls(tmp_path, capsys):
    paths = []
    for j in (2, 3):
        path = tmp_path / f"g{j}.json"
        path.write_text(generator(3, j).to_json())
        paths.append(str(path))
    assert cli_main(["element", "compose", "--file", paths[0], "--file", paths[1]]) == 0
    capsys.readouterr()
    assert cli_main(["--json", "element", "compose", "--file", paths[1]]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == [1, 0, -1]
    assert cli_main(["element", "compose", "--n", "3", "--word", "g2", "--word", "g3"]) == 0
    capsys.readouterr()
    assert cli_main(["--json", "element", "compose", "--n", "3", "--word", "g3^2"]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == [2, 0, -2]
    assert cli_main(["element", "compose"]) == 2
    assert "nothing to compose" in capsys.readouterr().err


def test_cli_call_after_a_parse_error_matches_a_fresh_call(tmp_path, capsys):
    path = write_subgroup(tmp_path, delta_k(3, 2))
    argv = ["--json", "subgroup", "lattice", "--subgroup", path]
    assert cli_main(argv) == 0
    fresh = capsys.readouterr()
    for bad in (["subgroup", "lattice"], ["element", "spin"], ["--window", "3"]):
        assert cli_main(bad) == 2
        assert capsys.readouterr().out == ""
        assert cli_main(argv) == 0
        assert capsys.readouterr() == fresh


def readme_cli_lines():
    """The argv of each ``houghton-kit`` line in the README's CLI block."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("houghton-kit ")]


def test_every_readme_cli_line_parses():
    lines = readme_cli_lines()
    assert len(lines) == 14
    for argv in lines:
        assert cli.parse_argv(argv).command == argv[0]
    assert lines[-1][-1] == "--json" and cli.parse_argv(lines[-1]).json


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    argv = ["subgroup", "hirsch", "--subgroup", write_subgroup(tmp_path, delta_k(3, 2)), "--json"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "houghton_kit", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    process = run(*argv)
    assert process.returncode == cli_main(argv) == 0
    assert process.stdout == capsys.readouterr().out
    process = run("-h")
    assert process.returncode == 0 and process.stdout.startswith("usage: houghton-kit")


@pytest.mark.parametrize(
    "argv",
    [
        ["subgroup", "orbits", "--window", "0"],
        ["blocks", "find", "--window", "-1"],
        ["wreath", "embed", "--blocks", "BLOCKS", "--window", "0"],
        ["classify", "--window", "-2"],
        ["wreath", "verify", "--blocks", "BLOCKS", "--samples", "-3"],
        ["wreath", "verify", "--blocks", "BLOCKS", "--samples", "0"],
        ["element", "parse", "--word", "g2", "--n", "0"],
        ["element", "parse", "--word", "g2", "--n", "-2"],
    ],
    ids=["subgroup", "blocks", "wreath", "classify", "samples-negative", "samples-zero",
         "n-zero", "n-negative"],
)
def test_cli_window_must_be_positive(tmp_path, capsys, argv):
    spath = write_subgroup(tmp_path, delta_k(3, 2))
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps([[[1, 0]], [[1, 1]]]))
    argv = [str(bpath) if a == "BLOCKS" else a for a in argv]
    if argv[0] != "element":
        argv += ["--subgroup", spath]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive integer" in captured.err


def test_cli_inconclusive_exit_3(tmp_path, capsys):
    # the pair group's generator margin is 4, so window 2 is too shallow to
    # verify blocks against it
    group = GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 2,
            transposition(2, (1, 0), (1, 1)),
            from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
        ],
    )
    path = write_subgroup(tmp_path, group)
    assert cli_main(["blocks", "find", "--subgroup", path, "--window", "2"]) == 3
    err = capsys.readouterr().err
    assert "hint: 8" in err.splitlines()


def test_deep_join_orbits_are_one_exact_class(tmp_path, capsys):
    # <g^2, (1:0 1:41)> has one orbit, whose parities meet only at (1, 41),
    # far past window 10
    group = GeneratedSubgroup.from_elements(
        2, [generator(2, 2) ** 2, transposition(2, (1, 0), (1, 41))]
    )
    report = classify(group, window=10)
    assert report.orbit_summary["class_count"] == 1
    assert report.orbit_summary["stabilized"]
    assert not any("orbit" in note for note in report.evidence_notes)
    path = write_subgroup(tmp_path, group)
    assert cli_main(["--json", "subgroup", "orbits", "--subgroup", path, "--window", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["class_count"] == 1


def test_full_hirsch_verdicts_exact_for_n_at_least_3():
    from houghton_kit.subgroups import element_with_translation

    h = GeneratedSubgroup.from_elements(3, houghton_generators(3))
    non_level = GeneratedSubgroup.from_elements(
        3,
        [
            element_with_translation(h, (1, 2, -3)),
            element_with_translation(h, (2, 1, -3)),
        ],
    )
    samples = [
        h3(),
        GeneratedSubgroup.from_elements(4, houghton_generators(4)),
        delta_k(3, 2),
        delta_k(3, 3),
        delta_k(4, 2),
        non_level,
    ]
    for group in samples:
        report = classify(group, window=24)
        assert report.full_hirsch
        n = group.n
        assert report.verdict == f"type F_{n - 1}, not FP_{n}, max-n"
        assert not report.conditional


def test_n2_full_hirsch_never_unconditional():
    for group in (
        GeneratedSubgroup.from_elements(2, houghton_generators(2)),
        delta_k(2, 2),
    ):
        report = classify(group, window=24)
        assert report.full_hirsch
        assert report.conditional
        assert "unless" in report.verdict


# -- malformed input files and numbers --------------------------------------------


@pytest.mark.parametrize(
    "blocks",
    [[[[1.5, 1]]], [[["1", 0]]], [[[1, 0, 3]]], [[[1]]], [[[[1, 0], [1, 0]]]], "x"],
    ids=["float", "string", "triple", "single", "nested", "not-a-list"],
)
def test_cli_blocks_verify_malformed_point_exits_2(tmp_path, capsys, blocks):
    spath = write_subgroup(tmp_path, delta_k(3, 2))
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps(blocks))
    assert cli_main(["blocks", "verify", "--subgroup", spath, "--blocks", str(bpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block" in captured.err


@pytest.mark.parametrize(
    "blocks", [[[[9, 5]], [[1, 1]]], [[[0, 1]], [[1, 1]]]], ids=["ray-9", "ray-0"]
)
def test_cli_blocks_quotient_singleton_outside_the_window_exits_2(tmp_path, capsys, blocks):
    spath = write_subgroup(tmp_path, delta_k(3, 2))
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps(blocks))
    argv = ["blocks", "quotient", "--subgroup", spath, "--blocks", str(bpath), "--window", "40"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block point outside the window of depth" in captured.err


@pytest.mark.parametrize("action", ["quotient", "verify"])
def test_cli_blocks_point_past_the_window_exits_2(tmp_path, capsys, action):
    spath = write_subgroup(tmp_path, delta_k(3, 2))
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps([[[1, 50]], [[1, 1]]]))
    argv = ["blocks", action, "--subgroup", spath, "--blocks", str(bpath), "--window", "40"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block point outside the window of depth 40" in captured.err


def test_cli_blocks_verify_a_block_repeating_a_point_exits_2(tmp_path, capsys):
    group = GeneratedSubgroup.from_elements(2, [generator(2, 2) ** 2, transposition(2, (1, 0), (1, 1))])
    spath = write_subgroup(tmp_path, group)
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps([[[1, 0], [1, 0]]]))
    argv = ["blocks", "verify", "--subgroup", spath, "--blocks", str(bpath), "--window", "20"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block 0 repeats a point" in captured.err


@pytest.mark.parametrize(
    "malform, field",
    [
        (lambda d: {**d, "n": "x"}, "'n'"),
        (lambda d: {**d, "n": 3.5}, "'n'"),
        (lambda d: {**d, "n": 0}, "'n'"),
        (lambda d: {**d, "generators": 5}, "'generators'"),
        (lambda d: {**d, "labels": 7}, "'labels'"),
        (lambda d: {**d, "labels": [1, 2, 3, 4]}, "'labels'"),
        (lambda d: [d], "JSON object"),
    ],
    ids=["n-string", "n-float", "n-zero", "generators-int", "labels-int", "labels-ints", "list"],
)
def test_cli_malformed_subgroup_file_exits_2(tmp_path, capsys, malform, field):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(malform(delta_k(3, 2).to_json_dict())))
    assert cli_main(["subgroup", "lattice", "--subgroup", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bns", "certificate", "--n", "3", "--lattice", "1,a"], "'a'"),
        (["bns", "certificate", "--n", "3", "--lattice", "1.5,2,-3.5"], "'1.5'"),
        (["bns", "sigma", "--n", "3", "--chi", "1/0 t1"], "zero denominator"),
        (["bns", "type", "--n", "3", "--kernel", "1/0 t1"], "zero denominator"),
    ],
    ids=["lattice-letter", "lattice-fraction", "sigma-zero-denominator", "type-zero-denominator"],
)
def test_cli_malformed_number_exits_2(capsys, argv, message):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_level_on_two_rays_needs_n_at_least_3(tmp_path, capsys):
    group = GeneratedSubgroup.from_elements(2, houghton_generators(2))
    path = write_subgroup(tmp_path, group)
    assert cli_main(["subgroup", "level", "--subgroup", path]) == 2
    err = capsys.readouterr().err
    assert "needs n >= 3" in err and "probe" not in err
    note = classify(group).level["note"]
    assert note == "the lattice criterion needs n >= 3"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bns", "type", "--n", "3"], "--kernel"),
        (["bns", "sigma", "--n", "3"], "--chi"),
        (["blocks", "verify"], "--blocks"),
        (["blocks", "quotient"], "--blocks"),
    ],
    ids=["type-kernel", "sigma-chi", "verify-blocks", "quotient-blocks"],
)
def test_cli_action_without_its_flag_exits_2(tmp_path, capsys, argv, flag):
    if argv[0] == "blocks":
        argv = argv + ["--subgroup", write_subgroup(tmp_path, delta_k(3, 2))]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} {argv[1]} needs {flag}\n"


@pytest.mark.parametrize("action", ["verify", "quotient"])
def test_cli_block_file_object_without_blocks_exits_2(tmp_path, capsys, action):
    spath = write_subgroup(tmp_path, delta_k(3, 2))
    bpath = tmp_path / "blocks.json"
    bpath.write_text(json.dumps({"systems": [[[1, 0]], [[1, 1]]]}))
    assert cli_main(["blocks", action, "--subgroup", spath, "--blocks", str(bpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block file object has no 'blocks' key\n"
