"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import random
import time
from fractions import Fraction

from houghton_kit.blocks import BlockSystem, find_block_systems, quotient
from houghton_kit.bns import (
    canonicalize,
    f_certificate,
    in_sigma,
    kernel_lattice_of_character,
    meinert_complement_bound,
    subgroup_type,
)
from houghton_kit.classify import classify
from houghton_kit.elements import (
    aop_exceptional_set,
    cycle_structure,
    from_cycles,
    generator,
    houghton_generators,
    identity,
    is_order_preserving_outside,
    random_element,
    transposition,
    window_cycle_counts,
)
from houghton_kit.finperm import (
    FinitePermGroup,
    brute_force_partition_check,
    direct_product_on_disjoint_sets,
    is_strongly_orbit_primitive,
    symmetric_group,
)
from houghton_kit.rays import RayPoint, RaySystem
from houghton_kit.subgroups import (
    GeneratedSubgroup,
    TranslationLattice,
    delta_k,
    finitary_commutator,
    is_congruence_lifting,
    is_level,
    orbit_windows,
    preserves_residue_classes,
    translation_lattice,
)
from houghton_kit.wreath import (
    MultiWreathElement,
    build_block_context,
    kk_embed,
    order_preserving_on_class,
    phi_s_descent,
    random_words,
    verify_kk,
)


def _report(num, took, cap, detail):
    line = f"ACCEPTANCE {num:02d} PASS ({took:.2f}s"
    line += f" < {cap}s" if cap else ""
    line += f"): {detail}"
    print(line)


def pair_group():
    return GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 2,
            transposition(2, (1, 0), (1, 1)),
            from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
        ],
    )


def test_criterion_01_group_laws():
    start = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for n in (3, 4):
        ident = identity(n)
        for _ in range(500):
            a = random_element(n, head_budget=5, t_bound=2, seed=rng)
            b = random_element(n, head_budget=5, t_bound=2, seed=rng)
            c = random_element(n, head_budget=5, t_bound=2, seed=rng)
            assert a.compose(b).compose(c) == a.compose(b.compose(c))
            assert a.compose(a.inverse()) == ident
            assert ident.compose(a) == a and a.compose(ident) == a
            tab = a.compose(b).translation_vector()
            assert tab == tuple(
                x + y for x, y in zip(a.translation_vector(), b.translation_vector())
            )
            for e in (a, b, c):
                assert sum(e.translation_vector()) == 0
            checked += 1
    took = time.perf_counter() - start
    assert checked == 1000
    assert took < 10
    _report(1, took, 10, "group laws and translation additivity on 1000 triples")


def test_criterion_02_cycle_formula():
    start = time.perf_counter()
    rng = random.Random(202)
    for n in (2, 3, 4):
        for _ in range(500):
            g = random_element(n, head_budget=6, t_bound=2, seed=rng)
            formula = sum(abs(x) for x in g.translation_vector()) // 2
            sizes, strands = window_cycle_counts(
                g, g.threshold + 3 * max(1, g.max_shift())
            )
            assert strands == formula
            cs = cycle_structure(g)
            assert cs.infinite_cycle_count == formula
            assert sorted(len(c) for c in cs.finite_cycles) == sizes
            assert cs.window_checked
    took = time.perf_counter() - start
    assert took < 20
    _report(2, took, 20, "cycle counts match window tracing for 1500 elements")


def test_criterion_03_generator_fixtures():
    start = time.perf_counter()
    for n in (2, 3, 4):
        for j in range(2, n + 1):
            g = generator(n, j)
            expected_t = tuple(
                1 if i == 0 else -1 if i == j - 1 else 0 for i in range(n)
            )
            assert g.translation_vector() == expected_t
            for p in RaySystem(n).window(50):
                if p.ray == 1:
                    expected = RayPoint(1, p.pos + 1)
                elif p.ray == j and p.pos == 0:
                    expected = RayPoint(1, 0)
                elif p.ray == j:
                    expected = RayPoint(j, p.pos - 1)
                else:
                    expected = p
                assert g.apply(p) == expected
    took = time.perf_counter() - start
    _report(3, took, None, "generator action tables exact on window depth 50")


def test_criterion_04_almost_order_preserving():
    start = time.perf_counter()
    rng = random.Random(404)
    samples = []
    for n in (2, 3):
        samples += houghton_generators(n)
        samples += [g.inverse() for g in houghton_generators(n)]
        for _ in range(30):
            samples.append(random_element(n, head_budget=5, t_bound=2, seed=rng))
    for g in samples:
        exc = aop_exceptional_set(g)
        assert is_order_preserving_outside(g, exc)
        for f in exc:
            assert not is_order_preserving_outside(g, exc - {f})
    took = time.perf_counter() - start
    _report(4, took, None, f"exceptional sets minimal for {len(samples)} elements")


def test_criterion_05_non_level_example():
    start = time.perf_counter()
    lat = TranslationLattice.from_vectors(3, [(1, 2, -3), (2, 1, -3)])
    assert lat.rank == 2
    assert lat.index_in_zero_sum() == 3
    verdict = is_level(lat)
    assert not verdict.is_level
    assert verdict.witness[:2] == (2, 1)
    assert not is_congruence_lifting(lat).is_congruence_lifting
    took = time.perf_counter() - start
    _report(5, took, None, "rank 2, index 3, not level with witness pair (2,1)")


def test_criterion_06_delta_suite():
    start = time.perf_counter()
    d = delta_k(3, 2)
    for g in d.generators:
        assert preserves_residue_classes(g, 2)
    assert translation_lattice(d).index_in_zero_sum() == 4
    report = orbit_windows(d, 40)
    assert report.class_count == 2
    assert report.stabilized
    assert all(rays == (1, 2, 3) for rays in report.ray_incidence)
    verdict = classify(d)
    assert verdict.verdict == "type F_2, not FP_3, max-n"
    took = time.perf_counter() - start
    assert took < 15
    _report(6, took, 15, "residue stabilizer family: classes, index 4, verdict")


def test_criterion_07_sop_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(707)
    agreements = 0
    for _ in range(200):
        deg = rng.randint(2, 7)
        dom = tuple(range(deg))
        grp = FinitePermGroup(dom, [rng.sample(dom, deg) for _ in range(2)])
        assert (
            is_strongly_orbit_primitive(grp).is_sop
            == brute_force_partition_check(grp).is_sop
        )
        agreements += 1
    product = direct_product_on_disjoint_sets(
        symmetric_group(range(1, 4)), symmetric_group(range(4, 7))
    )
    assert is_strongly_orbit_primitive(product).is_sop
    assert brute_force_partition_check(product).is_sop
    diag = FinitePermGroup(
        tuple(range(1, 7)),
        [{1: 2, 2: 1, 4: 5, 5: 4}, {1: 2, 2: 3, 3: 1, 4: 5, 5: 6, 6: 4}],
    )
    verdict = is_strongly_orbit_primitive(diag)
    assert not verdict.is_sop
    assert verdict.witness[0] == (1, 4)
    assert not brute_force_partition_check(diag).is_sop
    took = time.perf_counter() - start
    assert took < 60
    _report(7, took, 60, f"oracle agreement on {agreements} random groups + fixtures")


def _delta_context(depth=30):
    d = delta_k(3, 2)
    system = BlockSystem.from_lists([[(1, 0)], [(1, 1)]])
    return d, build_block_context(d, system, depth)


def test_criterion_08_kk_embedding():
    start = time.perf_counter()
    group = pair_group()
    ctx = build_block_context(group, BlockSystem.from_lists([[(1, 0), (1, 1)]]), 60)
    report = verify_kk(group, ctx, samples=300, max_len=5, seed=808)
    assert report.ok and report.pairs_checked == 300
    d, dctx = _delta_context()
    report2 = verify_kk(d, dctx, samples=200, max_len=3, seed=809)
    assert report2.ok and report2.pairs_checked == 200
    # exact support characterization, directly
    rng = random.Random(810)
    for w in random_words(group, 20, 4, rng):
        k = kk_embed(w, ctx)
        supp = set(k.support())
        assert len(supp) < len(ctx.quotient.quotient_points)
        for qp in ctx.quotient.quotient_points:
            if qp in ctx.quotient.partial_action(w):
                assert (qp in supp) == (not order_preserving_on_class(w, ctx, qp))
    took = time.perf_counter() - start
    assert took < 30
    _report(8, took, 30, "product rule, injectivity and supports on 500 pairs")


def test_criterion_09_quotient_structure():
    start = time.perf_counter()
    group = pair_group()
    q = quotient(group, BlockSystem.from_lists([[(1, 0), (1, 1)]]), 60)
    assert q.induced[0].translation_vector() == (1, -1)
    rng = random.Random(909)
    gens = list(group.generators)
    rho = dict(zip(gens, q.induced))
    for _ in range(200):
        a, b = rng.choice(gens), rng.choice(gens)
        assert rho[a].compose(rho[b]) == q.induce(a.compose(b))
    took = time.perf_counter() - start
    _report(9, took, None, "induced translations and homomorphism on 200 pairs")


def test_criterion_10_block_bound():
    start = time.perf_counter()
    group = pair_group()
    e = translation_lattice(group).index_in_zero_sum()
    result = find_block_systems(group, depth=40)
    assert result.systems
    for system in result.systems:
        assert system.max_block_size <= e
    assert result.systems[0].blocks[0] == (RayPoint(1, 0), RayPoint(1, 1))
    assert result.systems[0].max_block_size == 2 <= e
    took = time.perf_counter() - start
    _report(10, took, None, f"all found blocks within the index bound e={e}")


def test_criterion_11_phi_s_descent():
    start = time.perf_counter()
    group = pair_group()
    ctx = build_block_context(group, BlockSystem.from_lists([[(1, 0), (1, 1)]]), 60)
    kernel = [group.generators[1]]
    rng = random.Random(1111)
    candidates = [
        qp for qp in ctx.quotient.quotient_points if 1 <= qp.pos <= 6
    ]
    solved = 0
    for _ in range(100):
        offs = rng.sample(candidates, rng.randint(1, 3))
        g = rng.choice(list(group.generators))
        alpha = kk_embed(g, ctx).multiply(
            MultiWreathElement(ctx, tuple((qp, (1, 0)) for qp in offs), identity(2))
        )
        result = phi_s_descent(alpha, group, ctx, kernel)
        assert result.ok
        assert len(result.steps) <= 3
        measures = [m for _, _, m in result.steps]
        assert measures == sorted(measures, reverse=True)
        assert len(set(measures)) == len(measures)
        assert alpha == result.residue.multiply(kk_embed(result.witness, ctx))
        solved += 1
    took = time.perf_counter() - start
    _report(11, took, None, f"{solved} descents, strictly decreasing, <= 3 steps")


def test_criterion_12_bns_suite():
    start = time.perf_counter()
    for n in (3, 4, 5):
        for i in range(n):
            coeffs = [0] * n
            coeffs[i] = 1
            assert not in_sigma(canonicalize(coeffs), 1)
    verdict = subgroup_type(4, kernel_lattice_of_character("t1+t2", 4))
    assert verdict.type_f_max == 1 and not verdict.has_type_f(2)
    rng = random.Random(1212)
    full_rank = 0
    while full_rank < 300:
        n = rng.choice((3, 4))
        vecs = []
        for _ in range(n - 1):
            v = [rng.randint(-3, 3) for _ in range(n - 1)]
            v.append(-sum(v))
            vecs.append(v)
        lat = TranslationLattice.from_vectors(n, vecs)
        if lat.index_in_zero_sum() is None:
            continue
        full_rank += 1
        assert f_certificate(lat).certified == is_level(lat).is_level
    grids = 0
    while grids < 50:
        n = rng.choice((3, 4))
        k = rng.randint(1, 3)
        grid = [[Fraction(rng.randint(0, 2)) for _ in range(n)] for _ in range(k)]
        supports = [sum(1 for v in row if v != min(row)) for row in grid]
        if sum(supports) == 0:
            continue
        grids += 1
        join_dim = sum(s - 1 for s in supports) + (k - 1)
        assert meinert_complement_bound(n, k, grid) == (join_dim <= n - 2)
    took = time.perf_counter() - start
    assert took < 20
    _report(12, took, 20, "skeleta, kernel type, 300 certificates, 50 joins")


def test_criterion_13_finitary_commutator():
    start = time.perf_counter()
    for group in (
        GeneratedSubgroup.from_elements(3, houghton_generators(3)),
        delta_k(3, 2),
    ):
        sigma = finitary_commutator(group)
        assert sigma.translation_vector() == (0, 0, 0)
        assert not sigma.is_identity()
        report = orbit_windows(group, 40)
        assert report.stabilized
        moved, _ = sigma.support_description()
        for cls in report.classes:
            assert set(moved) & set(cls)
    took = time.perf_counter() - start
    _report(13, took, None, "commutators finitary and meeting every orbit class")
