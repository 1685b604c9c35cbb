"""Facts deduced from how the ideals were built, against the work they skip.

A handle built by sum, product, meet or colon from handles whose global
quotient is supported at the origin inherits that certificate, and its
colength skips the nilpotency loop.  For powers of I_1 the chain
I^{n+1} in I^n holds by construction, and once I^{n+1} = Q I^n, also
I^{n+2} = Q I^{n+1}.  A sum contains its operands and a colon its dividend,
so its basis starts from theirs.  Admissibility puts Q^n I_2 + W inside
I_{n+2} + W, so the collapse clause compares their colengths.  Here every
interned handle's colength is recomputed by the full loop on a fresh
handle, every basis started from another one is rebuilt from the relations
and the generators, the collapse clause is scanned generator by generator,
and the full chain and tail scans run on every adic job.
"""
import json

import pytest
from hypothesis import given, settings, strategies as st

from filtra import ideals, report
from filtra.config import load_config, parse_config
from filtra.filtration import (ADIC, EXPLICIT, Filtration, reduction_system,
                               verify_admissible)
from filtra.groebner import groebner_basis
from filtra.ideals import IdealHandle, LocalRing

from conftest import CORPUS_DIR, GOLDEN_DIR


def collapse_by_scan(data, W):
    """The collapse clause as it is defined: the first n with a generator of
    I_{n+2} outside Q^n I_2 + W, and that generator."""
    filt, Q = data.filt, data.red.handle
    for n in range(1, data.horizon - 1):
        bad = (Q.power(n) * filt.get_ideal(2) + W).missing_generator(filt.get_ideal(n + 2))
        if bad is not None:
            return {"n": n, "generator": str(bad)}
    return None


def run_captured(cfg):
    """Run one job; return its report, its ring, the bases built from a seed
    other than the relations' basis, the collapse clause's witness by the
    scan (False if the job stopped before it) and the (filtration,
    reduction) that run_job certified, or (None, None) if it stopped before."""
    rings, certified, seeded, scanned = [], [], [], [False]
    make_ring, verify = report.LocalRing, report.verify_admissible
    build, structural = ideals.groebner_basis, report.evaluate_structural

    def ring(*args, **kwargs):
        rings.append(make_ring(*args, **kwargs))
        return rings[-1]

    def captured(filt, red, horizon):
        certified.append((filt, red))
        return verify(filt, red, horizon)

    def counted(gens, ctx=None, use_criteria=True, seed=None):
        out = build(gens, ctx, use_criteria, seed)
        if seed is not None and seed is not rings[-1].gb_relations:
            seeded.append(out)
        return out

    def compared(data, W):
        out = structural(data, W)
        scanned[0] = collapse_by_scan(data, W)
        assert out["clause_collapse"]["witness"] == scanned[0], cfg.name
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "LocalRing", ring)
        mp.setattr(report, "verify_admissible", captured)
        mp.setattr(ideals, "groebner_basis", counted)
        mp.setattr(report, "evaluate_structural", compared)
        got = report.run_job(cfg)
    assert len(rings) == 1, got["name"]
    return (got, rings[0], seeded, scanned[0],
            *(certified[-1] if certified else (None, None)))


def full_scans(filt, red, horizon) -> tuple:
    """The chain scan's failing stages and every tail flag, by equality."""
    stage = filt.get_ideal
    chain = [n for n in range(1, horizon)
             if stage(n).missing_generator(stage(n + 1)) is not None]
    flags = [stage(n + 1).equals_local(red.handle * stage(n)) for n in range(horizon - 1)]
    return chain, flags


def check_adic_scans(got, filt, red) -> int:
    """Assert the full scans agree with the report; return its r."""
    horizon, name = got["filtration"]["horizon"], got["name"]
    chain, flags = full_scans(filt, red, horizon)
    assert chain == [], name
    assert flags == got["admissibility"]["stage_equalities"], name
    return got["admissibility"]["reduction_postulation"]


def check_certificates(ring) -> int:
    """Assert every interned handle's colength equals the full loop's on a
    fresh handle; return how many non-monomial handles carry the flag."""
    flagged = sum(h._at_origin and h.monomials is None for h in ring._handles.values())
    for gens, handle in list(ring._handles.items()):
        assert IdealHandle(ring, gens).colength() == handle.colength(), handle
    return flagged


def check_seeded_bases(ring, seeded) -> int:
    """Assert every basis built from another handle's basis equals the one
    built from the relations and the generators; return how many handles
    hold one."""
    ids = {id(gb) for gb in seeded}
    count = 0
    for gens, handle in ring._handles.items():
        if handle._gb is not None and id(handle._gb) in ids:
            scratch = groebner_basis(ring.gb_relations.polys + gens, ctx=ring.ctx)
            assert handle._gb.polys == scratch.polys, handle
            count += 1
    return count


@pytest.fixture(scope="module")
def runs():
    """Every corpus job and every job of ``golden/report_digests.json``:
    (report, adic scans' r or None, flagged non-monomial handles, handles
    with a seeded basis, the collapse clause's witness by the scan)."""
    configs = [load_config(p) for p in sorted(CORPUS_DIR.glob("*.json"))]
    configs += [parse_config(e["config"]) for e in
                json.loads((GOLDEN_DIR / "report_digests.json").read_text())]
    out = []
    for cfg in configs:
        got, ring, seeded, collapse, filt, red = run_captured(cfg)
        r = None
        if filt is not None and filt.kind == ADIC:
            r = check_adic_scans(got, filt, red)
        out.append((got, r, check_certificates(ring), check_seeded_bases(ring, seeded),
                    collapse))
    return out


def test_inherited_certificates_match_the_full_loop(runs):
    """The comparison ran in the fixture, after the job and its scans; here,
    that it met the 3 355 certified non-monomial handles of those jobs."""
    assert sum(run[2] for run in runs) == 3355


def test_adic_chain_and_tail_match_the_full_scans(runs):
    """The scans ran in the fixture; here, that they met all 95 adic jobs
    that reached the tail, 89 of them with r >= 1."""
    rs = [run[1] for run in runs if run[1] is not None]
    assert (len(rs), sum(r >= 1 for r in rs)) == (95, 89)


def test_seeded_bases_match_bases_from_scratch(runs):
    """The rebuild ran in the fixture, after the job; here, that it met the
    763 handles whose basis started from an operand's or a dividend's."""
    assert sum(run[3] for run in runs) == 763


def test_collapse_clause_by_lengths_matches_the_scan(runs):
    """The comparison ran in the fixture, in place of evaluate_structural;
    here, that it met all 103 jobs, 30 of them with a failing clause."""
    reached = [run[4] for run in runs if run[4] is not False]
    assert (len(reached), sum(w is not None for w in reached)) == (103, 30)


def test_a_product_with_a_second_point_keeps_no_certificate():
    """(x^2 - x, y^2) has a second point at x = 1, so a product with m or a
    meet with m^2 does not inherit their certificate, while a sum does."""
    ring = LocalRing(("x", "y"))
    m = ring.maximal_ideal()
    bad = ring.ideal(["x^2 - x", "y^2"])
    assert m.colength() == 1 and bad.colength() is None
    assert (bad * m).colength() is None
    assert bad.intersect(m.power(2)).colength() is None
    assert (bad + m).colength() == 1


def test_an_explicit_tower_scans_its_whole_tail():
    """I_1 = Q = m, I_2 = m^2 and I_3 = m^3 + (x^2): I_2 = Q I_1 but
    I_3 != Q I_2, so the tail past a first equality is deduced for powers
    only."""
    ring = LocalRing(("x", "y"))
    filt = Filtration(ring, EXPLICIT, {1: ["x", "y"], 2: ["x^2", "x*y", "y^2"],
                                       3: ["x^2", "x*y^2", "y^3"]})
    cert = verify_admissible(filt, reduction_system(ring, ["x", "y"]), 5)
    assert cert.stage_equalities == (True, True, False, True)
    assert cert.reduction_postulation == 3


def assert_job_deductions(obj) -> int:
    got, ring, seeded, _, filt, red = run_captured(parse_config(obj))
    assert got["verdict"] == "verified", got["name"]
    r = check_adic_scans(got, filt, red)
    check_certificates(ring)
    check_seeded_bases(ring, seeded)
    return r


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.sampled_from((None, 1, 2, 5)),
       st.sampled_from(("q", "fp:32003")))
def test_drawn_curves(a, step, c, field):
    """y^a - x^b (+ c x^(b-1) y) with I_1 = m and Q = (x), where r = a - 1."""
    b = a + step
    f = f"y^{a} - x^{b}" + ("" if c is None else f" + {c}*x^{b - 1}*y")
    r = assert_job_deductions({
        "name": "curve", "field": field,
        "ring": {"variables": ["x", "y"], "relations": [f]},
        "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
        "reduction": {"generators": ["x"]}})
    assert r >= 1


@st.composite
def monomial_stage_one(draw):
    """(x^a, y^a) and at least one monomial of degree >= a outside it."""
    a = draw(st.integers(2, 4))
    cands = [(i, j) for i in range(a) for j in range(a) if i + j >= a]
    extras = draw(st.lists(st.sampled_from(cands), min_size=1, max_size=3, unique=True))
    return a, [f"x^{i}*y^{j}" for i, j in extras]


@settings(max_examples=10, deadline=None)
@given(monomial_stage_one())
def test_drawn_monomial_ideals(case):
    """I_1 = (x^a, y^a, extras) with Q = (x^a, y^a); an extra outside Q
    makes I_1 != Q, so r >= 1."""
    a, extras = case
    r = assert_job_deductions({
        "name": "monomial",
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "adic", "stages": {"1": [f"x^{a}", f"y^{a}"] + extras}},
        "reduction": {"generators": [f"x^{a}", f"y^{a}"]}})
    assert r >= 1
