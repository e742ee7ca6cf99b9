"""The benchmark's workloads: inputs made from a seed, operations and checks.

Each workload builds fresh inputs for every pass from ``random.Random`` so
that no two passes hand the program equal objects, and runs one pass as a
closed loop: every operation waits for the previous result.  Checks compare
outputs with theory or with ``oracles``, never with a value the program
computed for the same input.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles


def _theory_report(n: int, k: int) -> tuple[dict, str]:
    """Report fields fixed by theory for a subgroup whose lattice is k Z^n_0.

    The k-congruence lattice has index k^(n-1), lifts congruences with
    modulus k and, for n >= 3, is level, so the level certificate holds and
    the verdict is the full-Hirsch theorem.  Returns the fields and the
    expected level status.
    """
    out = {
        "hirsch": n - 1,
        "full_hirsch": True,
        "lattice_index": k ** (n - 1),
        "congruence_lifting": {"status": True, "modulus": k},
    }
    if n < 3:
        out["certificate"] = {"status": "not-applicable"}
        out["verdict"] = "finitely generated, max-n; not FP_2 unless finite-by-Z"
        out["conditional"] = True
        return out, "not-applicable"
    out["certificate"] = {
        "status": "certified",
        "witness_count": n * (n - 1),
        "offending": None,
    }
    out["verdict"] = f"type F_{n - 1}, not FP_{n}, max-n"
    out["conditional"] = False
    return out, "level"


def pair_group(hk):
    """The n = 2 pair group of the acceptance suite."""
    el = hk.elements
    return hk.subgroups.GeneratedSubgroup.from_elements(
        2,
        [
            el.generator(2, 2) ** 2,
            el.transposition(2, (1, 0), (1, 1)),
            el.from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
        ],
    )


def _first_mismatch(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, want {value!r}"
    return None


class ClassifySuite:
    """classify(G, window) over delta_k, the pair group and full H_n.

    Each subgroup is conjugated by a seeded random element: the translation
    lattice, and so the verdict, stays fixed while the head tables move.
    The pair group is conjugated by a seeded word in its own generators
    instead: the group stays the same, so the block search must find the
    block system of acceptance criterion 10 on every seed.

    delta_k(3,2) comes five times per pass, under five conjugators and spread
    between the other subgroups.  Its classify is the median operation, so a
    run takes op_p50_s from fifteen or more samples spread over the run
    rather than from one sample per pass.
    """

    name = "classify-suite"

    def __init__(self, hk, size: str):
        self.hk = hk
        self.window = 40 if size == "full" else 20
        if size == "full":
            self.families = [(3, 2), (3, 1), (3, 2), (4, 2), (3, 2), (5, 3), (3, 2), "pair",
                             (3, 2), (4, 1)]
        else:
            self.families = [(3, 2), "pair", (3, 1)]

    def _base(self, family):
        hk = self.hk
        if family == "pair":
            return "pair", pair_group(hk), 2, 2
        n, k = family
        if k == 1:
            group = hk.subgroups.GeneratedSubgroup.from_elements(
                n, hk.elements.houghton_generators(n)
            )
            return f"H_{n}", group, n, 1
        return f"delta_k({n},{k})", hk.subgroups.delta_k(n, k), n, k

    def make_inputs(self, rng: random.Random, workdir: Path):
        hk = self.hk
        out = []
        for family in self.families:
            label, group, n, k = self._base(family)
            if family == "pair":
                gens = group.symmetric_generators()
                c = hk.elements.identity(n)
                for _ in range(rng.randint(1, 4)):
                    c = c.compose(rng.choice(gens))
            else:
                c = hk.elements.random_element(n, head_budget=3, t_bound=1, seed=rng)
            c_inv = c.inverse()
            conj = hk.subgroups.GeneratedSubgroup(
                n, tuple(c_inv.compose(g).compose(c) for g in group.generators), group.labels
            )
            out.append((label, conj, _theory_report(n, k), family == "pair"))
        return out

    def run_pass(self, inputs, r) -> None:
        classify = self.hk.classify.classify
        for label, group, want, has_pair_block in inputs:
            r.op(
                f"classify {label}",
                lambda: classify(group, window=self.window),
                check=lambda rep: self._check(group, rep, want, has_pair_block),
                canon=lambda rep: json.dumps(rep.to_json_dict(), sort_keys=True),
            )

    def _check(self, group, report, want, has_pair_block) -> str | None:
        fields, level = want
        got = report.to_json_dict()
        if got["level"]["status"] != level:
            return f"level: got {got['level']!r}, want status {level!r}"
        bad = _first_mismatch(got, fields)
        if bad:
            return bad
        systems = got["block_findings"]["systems"]
        if has_pair_block and not any(s[0] == [[1, 0], [1, 1]] for s in systems):
            return f"block search missed the block [(1,0), (1,1)]: found {systems}"
        blocks = self.hk.blocks
        for system in systems:
            verdict = blocks.verify_block_system(
                group, blocks.BlockSystem.from_lists(system), depth=self.window
            )
            if not verdict.valid:
                return f"returned block system fails verification: {system}"
        return None


class WreathDescent:
    """Block contexts, the wreath embedding, coset descent and subdirect probes.

    No block search runs here: the work is element products and
    construction, quotient partial actions, and the wreath, finperm and
    subdirect layers.
    """

    name = "wreath-descent"
    kk_samples = 4  # word pairs per verify_kk call

    def __init__(self, hk, size: str):
        self.hk = hk
        full = size == "full"
        self.kk_batches = 24 if full else 2
        self.descents = 48 if full else 3

    def make_inputs(self, rng: random.Random, workdir: Path):
        hk = self.hk
        blocks = hk.blocks
        return {
            "pair": pair_group(hk),
            "pair_blocks": blocks.BlockSystem.from_lists([[(1, 0), (1, 1)]]),
            "delta": hk.subgroups.delta_k(3, 2),
            "delta_blocks": blocks.BlockSystem.from_lists([[(1, 0)], [(1, 1)]]),
            "kk_seeds_pair": [rng.randrange(2**31) for _ in range(self.kk_batches)],
            "kk_seeds_delta": [rng.randrange(2**31) for _ in range(self.kk_batches)],
            "descent_seed": rng.randrange(2**31),
        }

    def run_pass(self, inp, r) -> None:
        hk = self.hk
        wr = hk.wreath
        pair, delta = inp["pair"], inp["delta"]
        # the pair block is the one acceptance criterion 10 finds; singleton
        # blocks, one per residue class, satisfy both axioms trivially
        for label, group, system, depth in (
            ("pair", pair, inp["pair_blocks"], 60),
            ("delta", delta, inp["delta_blocks"], 30),
        ):
            r.op(
                f"verify_block_system {label}",
                lambda: hk.blocks.verify_block_system(group, system, depth),
                check=lambda v: None if v.valid else f"block system rejected: {v.witnesses}",
                canon=repr,
            )
        ctx = r.op(
            "build_block_context pair",
            lambda: wr.build_block_context(pair, inp["pair_blocks"], 60),
            check=lambda c: self._check_context(c, pair, halved=True),
            canon=_canon_context,
        )
        dctx = r.op(
            "build_block_context delta",
            lambda: wr.build_block_context(delta, inp["delta_blocks"], 30),
            check=lambda c: self._check_context(c, delta, halved=False),
            canon=_canon_context,
        )
        # the pair group contains the transposition of its block, which is
        # finitary and fixes every class; singleton blocks induce nothing
        wg = None
        if ctx is not None:
            wg = r.op(
                "w_groups pair",
                lambda: wr.w_groups(pair, ctx),
                check=lambda w: _check_w_orders(w, 2),
                canon=_canon_w_groups,
            )
        if dctx is not None:
            r.op(
                "w_groups delta",
                lambda: wr.w_groups(delta, dctx),
                check=lambda w: _check_w_orders(w, 1),
                canon=_canon_w_groups,
            )
        if ctx is not None and wg is not None:
            for seed in inp["kk_seeds_pair"]:
                r.op(
                    "verify_kk pair",
                    lambda: wr.verify_kk(
                        pair, ctx, samples=self.kk_samples, max_len=5, seed=seed,
                        w_groups_by_orbit=[wg.from_group],
                    ),
                    check=self._check_kk,
                    canon=repr,
                )
        if dctx is not None:
            for seed in inp["kk_seeds_delta"]:
                r.op(
                    "verify_kk delta",
                    lambda: wr.verify_kk(delta, dctx, samples=self.kk_samples, max_len=3, seed=seed),
                    check=self._check_kk,
                    canon=repr,
                )
        if ctx is not None:
            self._descents(inp, ctx, r)
        self._subdirect(delta, r)

    def _check_context(self, ctx, group, halved: bool) -> str | None:
        # a block of two points per class halves every translation; singleton
        # blocks give back the group itself
        want = [
            tuple(x // 2 for x in g.translation_vector()) if halved else g.translation_vector()
            for g in group.generators
        ]
        got = [e.translation_vector() for e in ctx.quotient.induced]
        if got != want:
            return f"induced translations {got}, want {want}"
        blocks = [tuple(b) for b in ctx.quotient.system.blocks]
        if sorted(ctx.block_of_orbit) != sorted(blocks):
            return f"orbit blocks {ctx.block_of_orbit}, want {blocks}"
        return None

    def _check_kk(self, report) -> str | None:
        if not report.ok or report.pairs_checked != self.kk_samples:
            return f"embedding check failed: {report}"
        if report.typing_exceptions:
            return f"base values outside the block group: {report.typing_exceptions}"
        return None

    def _descents(self, inp, ctx, r) -> None:
        hk = self.hk
        wr = hk.wreath
        pair = inp["pair"]
        kernel = [pair.generators[1]]
        rng = random.Random(inp["descent_seed"])
        candidates = [qp for qp in ctx.quotient.quotient_points if 1 <= qp.pos <= 6]
        ident = hk.elements.identity(2)
        for _ in range(self.descents):
            offs = rng.sample(candidates, rng.randint(1, 3))
            g = rng.choice(list(pair.generators))
            alpha = wr.kk_embed(g, ctx).multiply(
                wr.MultiWreathElement(ctx, tuple((qp, (1, 0)) for qp in offs), ident)
            )
            r.op(
                "phi_s_descent",
                lambda: wr.phi_s_descent(alpha, pair, ctx, kernel),
                check=lambda res: _check_descent(wr, alpha, ctx, res),
                canon=_canon_descent,
                inconclusive=lambda res: res.status == "inconclusive",
            )

    def _subdirect(self, delta, r) -> None:
        sd = self.hk.subdirect
        dec = r.op(
            "decompose",
            lambda: sd.decompose(delta, depth=40),
            check=_check_decomposition,
            canon=lambda d: json.dumps(d.to_json_dict(), sort_keys=True),
        )
        if dec is None:
            return
        for index in range(len(dec.factors)):
            r.op(
                "kernel_intersection_probe",
                lambda: sd.kernel_intersection_probe(delta, dec, index),
                check=lambda res: _check_probe(res, index),
                canon=lambda res: json.dumps(
                    [res.status, res.word_length, res.element and res.element.to_json_dict()]
                ),
                inconclusive=lambda res: res.status == "inconclusive",
            )


def _canon_context(ctx) -> str:
    q = ctx.quotient
    return json.dumps(
        {
            "classes": [[list(p) for p in c] for c in q.classes],
            "induced": [e.to_json_dict() for e in q.induced],
            "kernel": list(q.kernel_generators),
            "blocks": [[list(p) for p in b] for b in ctx.block_of_orbit],
        },
        sort_keys=True,
    )


def _check_w_orders(report, order) -> str | None:
    got = [report.from_group.order(), report.from_finitary.order(), report.from_kernel.order()]
    if got != [order] * 3 or not (report.kernel_equals_finitary and report.finitary_equals_group):
        return f"block group orders {got}, want {order} each"
    return None


def _canon_w_groups(report) -> str:
    return json.dumps(
        [
            [list(p) for p in report.block],
            [sorted(g.gens) for g in (report.from_group, report.from_finitary, report.from_kernel)],
            report.kernel_equals_finitary,
            report.finitary_equals_group,
        ]
    )


def _check_descent(wr, alpha, ctx, result) -> str | None:
    if not result.ok:
        return None
    if alpha != result.residue.multiply(wr.kk_embed(result.witness, ctx)):
        return "alpha != residue * kk_embed(witness)"
    measures = [m for _, _, m in result.steps]
    if any(a <= b for a, b in zip(measures, measures[1:])):
        return f"off-support measure not strictly decreasing: {measures}"
    return None


def _canon_descent(result) -> str:
    return json.dumps(
        {
            "status": result.status,
            "steps": [[list(qp), k, m] for qp, k, m in result.steps],
            "residue": result.residue and result.residue.to_json_dict(),
            "witness": result.witness and result.witness.to_json_dict(),
            "reason": result.reason,
        },
        sort_keys=True,
    )


def _check_decomposition(dec) -> str | None:
    # on each residue class mod 2 the depth-2 ray shifts act as the standard
    # generators, so every factor is full, level and of index 1
    if len(dec.factors) != 2:
        return f"{len(dec.factors)} factors, want 2"
    for f in dec.factors:
        vectors = [e.translation_vector() for e in f.generators]
        if oracles.zero_sum_index(vectors, dec.n) != 1 or not f.full_hirsch or f.level is not True:
            return f"factor {f.orbit_index}: lattice {vectors}, level {f.level}"
    return None


def _check_probe(result, index) -> str | None:
    # tau_(index+1) swaps two points of residue class index and fixes the rest
    if result.status != "found":
        return f"probe status {result.status}"
    e = result.element
    moved = [p for p, q in e.head if p != q]
    if any(e.translation_vector()) or not moved:
        return f"probe element is not a nontrivial finitary element: {e}"
    if any(p.pos % 2 != index for p in moved):
        return f"probe element moves points outside residue class {index}: {moved}"
    return None


class CliInputs:
    """In-process CLI calls on seeded JSON files, one in five of them corrupt.

    Element thresholds sit on a log-uniform grid from 10 to 10^4, the same
    in every pass, so that the cost of a pass does not hinge on a few draws;
    the seed picks everything else.
    """

    name = "cli-inputs"

    MUTATIONS = ("zero-sum", "threshold", "duplicate-image", "drop-head", "ray-count", "ray-range")

    def __init__(self, hk, size: str):
        self.hk = hk
        full = size == "full"
        self.elements = 10 if full else 3
        self.top_exponent = 4 if full else 2
        self.subgroups = (3, 4, 5) if full else (3,)
        self.certificates = 6 if full else 2
        self.types = 4 if full else 1
        self.mutants = 3 if full else 1

    # -- inputs ------------------------------------------------------------------

    def _element(self, rng, n, threshold) -> dict:
        t = _zero_sum(rng, n, 2)
        pts = {(rng.randint(1, n), threshold - 1)}
        want = rng.randint(2, 5)
        while len(pts) < want:
            pts.add((rng.randint(1, n), rng.randrange(3, threshold)))
        pts = sorted(pts)
        rng.shuffle(pts)
        return oracles.element_json(t, pts)

    def _lattice(self, rng, n) -> list:
        while True:
            vecs = [_zero_sum(rng, n, 3) for _ in range(n - 1)]
            if oracles.rank(vecs) == n - 1:
                return vecs

    def _subgroup(self, rng, n) -> tuple[dict, list]:
        vecs = self._lattice(rng, n)
        gens = [oracles.element_json(v) for v in vecs]
        scramble = rng.sample([(ray, pos) for ray in range(1, n + 1) for pos in range(3, 40)], 3)
        gens.append(oracles.element_json([0] * n, scramble))
        return {"n": n, "generators": gens}, vecs

    def make_inputs(self, rng: random.Random, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = []  # (label, argv, check)

        def write(name, data):
            path = workdir / name
            path.write_text(json.dumps(data), encoding="utf-8")
            return str(path)

        valid_files = []
        span = self.top_exponent - 1
        for i in range(self.elements):
            threshold = round(10 ** (1 + span * i / (self.elements - 1)))
            data = self._element(rng, 2 + i % 4, threshold)
            path = write(f"e{i}.json", data)
            valid_files.append(("element", data))
            jobs.append(("element parse", ["--json", "element", "parse", "--file", path],
                         _expect_round_trip(data)))
            jobs.append(("element cycles", ["--json", "element", "cycles", "--file", path],
                         _expect_cycles(data)))
        for i, n in enumerate(self.subgroups):
            data, vecs = self._subgroup(rng, n)
            path = write(f"s{i}.json", data)
            valid_files.append(("subgroup", data))
            for action in ("lattice", "hirsch", "level"):
                jobs.append((f"subgroup {action}",
                             ["--json", "subgroup", action, "--subgroup", path],
                             _expect_subgroup(action, n, vecs)))
        for i in range(self.certificates):
            n = 3 + i % 3
            vecs = self._lattice(rng, n)
            text = ";".join(",".join(str(x) for x in v) for v in vecs)
            jobs.append(("bns certificate",
                         ["--json", "bns", "certificate", "--n", str(n), f"--lattice={text}"],
                         _expect_certificate(n, vecs)))
        # bns type stays on 3 rays: with n >= 4 subgroup_type gives wrong degrees
        # (see test_bns_type_matches_the_kernel_support_rule), and a benchmark
        # workload must be one on which no operation fails
        n = 3
        for _ in range(self.types):
            while True:
                coeffs = [rng.randint(0, 3) for _ in range(n)]
                if len(set(coeffs)) > 1:
                    break
            text = " + ".join(f"{c} t{j}" for j, c in enumerate(coeffs, 1) if c)
            jobs.append(("bns type", ["--json", "bns", "type", "--n", str(n), f"--kernel={text}"],
                         _expect_type(coeffs)))
        for i in range(self.mutants):
            kind, data = rng.choice(valid_files)
            bad = json.loads(json.dumps(data))
            target = bad if kind == "element" else bad["generators"][0]
            mutation = _mutate(target, rng.choice(self.MUTATIONS), rng)
            path = write(f"m{i}.json", bad)
            if kind == "element":
                action = rng.choice(("parse", "cycles"))
                argv = ["--json", "element", action, "--file", path]
            else:
                action = rng.choice(("lattice", "hirsch", "level"))
                argv = ["--json", "subgroup", action, "--subgroup", path]
            jobs.append((f"{kind} {action} ({mutation})", argv, _expect_rejected))
        rng.shuffle(jobs)
        return jobs

    # -- operations --------------------------------------------------------------

    def run_pass(self, jobs, r) -> None:
        cli_main = self.hk.cli.cli_main

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
            return code, out.getvalue()

        for label, argv, check in jobs:
            r.op(
                label,
                lambda: call(argv),
                check=check,
                canon=lambda res: f"{res[0]}\n{res[1]}",
                inconclusive=lambda res: res[0] == 3,
            )


def _zero_sum(rng, n, bound) -> list:
    while True:
        head = [rng.randint(-bound, bound) for _ in range(n - 1)]
        last = -sum(head)
        if abs(last) <= bound and (any(head) or last):
            return head + [last]


def _mutate(data: dict, kind: str, rng) -> str:
    """Corrupt one field of a valid element so that it breaks one invariant."""
    head = data["head"]
    if kind in ("duplicate-image", "drop-head", "ray-range") and len(head) < 2:
        kind = "threshold"
    if kind == "zero-sum":
        data["t"][0] += 1
    elif kind == "threshold":
        data["threshold"] += 1
    elif kind == "duplicate-image":
        i, j = rng.sample(range(len(head)), 2)
        head[i][1] = list(head[j][1])
    elif kind == "drop-head":
        del head[rng.randrange(len(head))]
    elif kind == "ray-count":
        data["n"] += 1
    elif kind == "ray-range":
        head[rng.randrange(len(head))][0][0] = data["n"] + 1
    return kind


def _json_out(res):
    code, out = res
    if code != 0:
        return None, f"exit {code}, want 0"
    return json.loads(out), None


def _expect_round_trip(data):
    def check(res):
        got, err = _json_out(res)
        if err:
            return err
        return None if got == data else "parsed element does not round-trip"

    return check


def _expect_cycles(data):
    def check(res):
        got, err = _json_out(res)
        if err:
            return err
        want = oracles.finite_cycles(data)
        cycles = [frozenset(tuple(p) for p in c) for c in got["finite_cycles"]]
        if set(cycles) != want or len(cycles) != len(want):
            return "finite cycles differ from the traced orbits"
        infinite = sum(abs(x) for x in data["t"]) // 2
        if got["infinite_cycles"] != infinite or got["window_checked"] is not True:
            return f"infinite cycles {got['infinite_cycles']}, want {infinite}"
        return None

    return check


def _expect_subgroup(action, n, vecs):
    def check(res):
        got, err = _json_out(res)
        if err:
            return err
        index = oracles.zero_sum_index(vecs, n)
        if action == "hirsch":
            want = {"hirsch": n - 1, "full": True}
            return None if got == want else f"{got}, want {want}"
        if action == "lattice":
            basis = got["basis"]
            if got["rank"] != n - 1 or got["index_in_zero_sum"] != index:
                return f"rank {got['rank']} index {got['index_in_zero_sum']}, want {n - 1} {index}"
            if oracles.zero_sum_index(basis, n) != index:
                return "basis spans a lattice of another index"
            if not all(oracles.in_hnf_span(basis, v) for v in vecs):
                return "basis misses a generator translation"
            return None
        failure = oracles.first_level_failure(vecs, n)
        modulus = oracles.congruence_modulus(vecs, n)
        want = {
            "level": failure is None,
            "witness": list(failure) if failure else None,
            "congruence_lifting": modulus is not None,
            "modulus": modulus,
        }
        return None if got == want else f"{got}, want {want}"

    return check


def _expect_certificate(n, vecs):
    def check(res):
        got, err = _json_out(res)
        if err:
            return err
        failure = oracles.first_level_failure(vecs, n)
        want = {
            "certified": failure is None,
            "witness_count": n * (n - 1) if failure is None else 0,
            "offending": list(failure) if failure else None,
        }
        return None if got == want else f"{got}, want {want}"

    return check


def _expect_type(coeffs):
    def check(res):
        got, err = _json_out(res)
        if err:
            return err
        want = oracles.kernel_type(coeffs)
        if got["type_f_max"] != want or got["capped"]:
            return f"type F_{got['type_f_max']} (capped {got['capped']}), want F_{want}"
        return None

    return check


def _expect_rejected(res):
    code, out = res
    if code != 2 or out:
        return f"exit {code} with output {out[:60]!r}, want exit 2 and no output"
    return None


WORKLOADS = {w.name: w for w in (ClassifySuite, WreathDescent, CliInputs)}
