"""Metamorphic checks: the same group, presented differently, gets the same report.

Each seeded group is classified as given and under five variants:
conjugation by a random element, Nielsen moves with a shuffle, a relabelling
of the rays, a duplicated generator, and a generator appended as a product
of the others.  The theorem-backed fields read the translation lattice only,
so they must agree under every variant.  The window's orbit classes are the
same set of classes under Nielsen moves and relabelling.  The finitary
alternating proof reads the generating set, so it may hold for one
presentation and not for another; what must hold is that no presentation of
a group with a verified window block system gets the proof.
"""

import random
from functools import lru_cache

from houghton_kit.blocks import PROOF_CAVEAT
from houghton_kit.classify import classify
from houghton_kit.elements import HoughtonElement, random_element
from houghton_kit.rays import RayPoint
from houghton_kit.subgroups import GeneratedSubgroup, TranslationLattice, delta_k, translation_lattice

VARIANTS = ("conjugated", "nielsen", "relabelled", "duplicated", "product")


def seeded_group(rng):
    """n = 2..5, 1-4 random generators, half of them joined with delta_k(n, 1..3)."""
    n = rng.randint(2, 5)
    gens = [random_element(n, seed=rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        gens += delta_k(n, rng.randint(1, 3)).generators
    return GeneratedSubgroup(n, tuple(gens))


def relabel(g, sigma):
    """g with each ray r renamed sigma[r - 1]."""
    move = lambda p: RayPoint(sigma[p.ray - 1], p.pos)
    t = [0] * g.n
    for r, x in enumerate(g.t):
        t[sigma[r] - 1] = x
    return HoughtonElement(g.n, t, {move(p): move(q) for p, q in g.head})


def variants(group, rng):
    """Per name of ``VARIANTS``, the group presented that way, and the ray relabelling."""
    n, gens = group.n, list(group.generators)
    c = random_element(n, seed=rng)
    c_inv = c.inverse()
    nielsen = gens[:]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(nielsen))
        others = [j for j in range(len(nielsen)) if j != i]
        if not others or rng.random() < 0.25:
            nielsen[i] = nielsen[i].inverse()
        else:
            other = nielsen[rng.choice(others)]
            nielsen[i] = nielsen[i] * (other if rng.random() < 0.5 else other.inverse())
    rng.shuffle(nielsen)
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    product = gens[0]
    for _ in range(rng.randint(1, 2)):
        product = product * rng.choice(gens) ** rng.choice([1, -1])
    presented = {
        "conjugated": [c_inv * g * c for g in gens],
        "nielsen": nielsen,
        "relabelled": [relabel(g, sigma) for g in gens],
        "duplicated": gens + [rng.choice(gens)],
        "product": gens + [product],
    }
    return {k: GeneratedSubgroup(n, tuple(v)) for k, v in presented.items()}, sigma


def theorem_backed(report):
    return (
        report.hirsch,
        report.full_hirsch,
        report.lattice_index,
        report.congruence_lifting,
        report.level["status"],
        report.certificate["status"],
        report.verdict,
        report.conditional,
    )


@lru_cache(maxsize=1)
def presentations():
    """Per seeded group: (group, its report, the variants, their reports, the relabelling)."""
    rng = random.Random(1414)
    out = []
    for _ in range(500):
        group = seeded_group(rng)
        shown, sigma = variants(group, rng)
        out.append((group, classify(group), shown, {k: classify(g) for k, g in shown.items()}, sigma))
    return tuple(out)


def test_theorem_backed_fields_agree_under_every_variant():
    for _, report, _, reports, _ in presentations():
        for name in VARIANTS:
            assert theorem_backed(reports[name]) == theorem_backed(report), name


def test_class_count_agrees_under_nielsen_moves_and_relabelling():
    for _, report, _, reports, _ in presentations():
        for name in ("nielsen", "relabelled"):
            assert (
                reports[name].orbit_summary["class_count"] == report.orbit_summary["class_count"]
            ), name


def test_relabelled_lattice_is_the_permuted_lattice():
    for group, _, shown, _, sigma in presentations():
        rows = []
        for row in translation_lattice(group).basis:
            moved = [0] * group.n
            for r, x in enumerate(row):
                moved[sigma[r] - 1] = x
            rows.append(moved)
        assert translation_lattice(shown["relabelled"]) == TranslationLattice.from_vectors(group.n, rows)


def test_no_presentation_of_a_group_with_a_window_system_has_the_proof():
    changes = with_systems = 0
    for _, report, _, reports, _ in presentations():
        findings = [report.block_findings] + [reports[name].block_findings for name in VARIANTS]
        proofs = [f["caveat"] == PROOF_CAVEAT for f in findings]
        changes += sum(p != proofs[0] for p in proofs[1:])
        if any(f["systems"] for f in findings):
            with_systems += 1
            assert not any(proofs)
    print(f"proof changes: {changes} of {len(VARIANTS) * len(presentations())} variants")
    assert with_systems > 0
