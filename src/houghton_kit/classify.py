"""End-to-end finiteness classification of a finitely generated subgroup.

The verdict for full-Hirsch subgroups follows from the classification
theorems once their hypotheses are machine-checked on the translation
lattice; window-scale computations (orbits, block systems, certificates) are
supplementary evidence and can only degrade the evidence section, never a
theorem-backed verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import find_block_systems
from .bns import f_certificate
from .errors import InconclusiveError
from .subgroups import (
    GeneratedSubgroup,
    LevelVerdict,
    congruence_exponent,
    is_congruence_lifting,
    is_level,
    orbit_summary,
    translation_lattice,
)

SCHEMA = "houghton-kit/1"


@dataclass
class ClassificationReport:
    n: int
    generator_count: int
    hirsch: int
    full_hirsch: bool
    lattice_basis: tuple
    lattice_index: int | None
    level: dict
    congruence_lifting: dict
    orbit_summary: dict
    block_findings: dict
    certificate: dict
    verdict: str
    conditional: bool
    evidence_notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "generator_count": self.generator_count,
            "hirsch": self.hirsch,
            "full_hirsch": self.full_hirsch,
            "lattice_basis": [list(r) for r in self.lattice_basis],
            "lattice_index": self.lattice_index,
            "level": self.level,
            "congruence_lifting": self.congruence_lifting,
            "orbit_summary": self.orbit_summary,
            "block_findings": self.block_findings,
            "certificate": self.certificate,
            "verdict": self.verdict,
            "conditional": self.conditional,
            "evidence_notes": list(self.evidence_notes),
        }


def _level_section(group, lattice, cert):
    if group.n < 3:
        return {
            "status": "not-applicable",
            "note": "the lattice criterion needs n >= 3",
        }
    verdict = is_level(lattice) if cert is None else LevelVerdict(cert.certified, cert.offending)
    if verdict.is_level:
        return {"status": "level"}
    i, j, vec = verdict.witness
    section = {
        "status": "not-level",
        "witness_pair": [i, j],
        "witness_vector": list(vec),
    }
    if lattice.index_in_zero_sum() is not None:
        m = congruence_exponent(lattice)
        section["finite_index_level_reduction"] = {
            "modulus": m,
            "note": (
                f"the {m}-congruence sublattice lies inside the image and is "
                "level, so a finite index subgroup is level"
            ),
        }
    return section


def classify(group: GeneratedSubgroup, window: int = 40) -> ClassificationReport:
    """Classify finiteness properties from the generators.

    Pipeline: translation lattice, Hirsch length, level and congruence
    checks, window orbits, block systems (full Hirsch length only),
    certificate, then the theorem-backed verdict.  ``orbit_summary``'s class
    count and ray incidence are read off the folded segments of the exact
    orbit partition (``subgroups.orbit_summary``), with no window point
    built.  ``block_findings`` comes
    from ``find_block_systems``: its empty ``systems`` is a proof that no
    proper non-trivial system of finite blocks exists when its ``caveat`` is
    ``blocks.PROOF_CAVEAT`` (every orbit is infinite and the group contains
    its finitary alternating group; no window is read), and only evidence
    when it is the window-bounded search's ``blocks.WINDOW_CAVEAT``.
    """
    n = group.n
    lattice = translation_lattice(group)
    rank = lattice.rank
    full = rank == n - 1
    notes = []

    cert = f_certificate(lattice) if full and n >= 3 else None
    level = _level_section(group, lattice, cert)
    cong = is_congruence_lifting(lattice)
    cong_section = {"status": bool(cong), "modulus": cong.modulus}

    orbits = orbit_summary(group, window)

    block_findings = {"searched": False, "systems": [], "caveat": ""}
    if full and group.generators:
        try:
            result = find_block_systems(group, depth=window)
            block_findings = {
                "searched": True,
                "systems": [s.to_json_list() for s in result.systems],
                "caveat": result.caveat,
            }
        except InconclusiveError as exc:
            notes.append(f"block search inconclusive: {exc}")

    certificate = {"status": "not-applicable"}
    if cert is not None:
        certificate = {
            "status": "certified" if cert.certified else "no-certificate",
            "witness_count": cert.witness_count,
            "offending": list(cert.offending[:2]) if cert.offending else None,
        }

    if full and n >= 3:
        verdict = f"type F_{n - 1}, not FP_{n}, max-n"
        conditional = False
    elif full and n == 2:
        verdict = "finitely generated, max-n; not FP_2 unless finite-by-Z"
        conditional = True
        notes.append(
            "the finite-by-Z alternative cannot be excluded from generators"
        )
    else:
        verdict = (
            f"conditional: type FP_{n} iff the finitary part is finite "
            "(undetermined from generators)"
        )
        conditional = True

    return ClassificationReport(
        n=n,
        generator_count=len(group.generators),
        hirsch=rank,
        full_hirsch=full,
        lattice_basis=lattice.basis,
        lattice_index=lattice.index_in_zero_sum(),
        level=level,
        congruence_lifting=cong_section,
        orbit_summary=orbits,
        block_findings=block_findings,
        certificate=certificate,
        verdict=verdict,
        conditional=conditional,
        evidence_notes=tuple(notes),
    )
