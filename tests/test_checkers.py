"""Boundary data, the dual-path characterization and the consequence checks,
frozen instance by instance.

Every number asserted here was derived by hand from the staircase structure
of the instance before the pipeline existed; the pipeline has to reproduce
them, not the other way round.
"""
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from filtra import report
from filtra.checkers import (_FACTS, ALL_CHECKS, check_base_reduction_equal,
                             check_multiplicity_colon_formula,
                             check_sally_coefficient_relations,
                             check_sally_lower_bound,
                             check_small_stage_two_collapse,
                             check_torsion_graded_pieces, compute_boundary_data,
                             evaluate_conditions, evaluate_structural,
                             run_checks)
from filtra.config import load_config, parse_config
from filtra.fields import field_from_descriptor
from filtra.filtration import (ADIC, EXPLICIT, RATLIFF_RUSH, Filtration,
                               find_reduction, reduction_system,
                               verify_admissible)
from filtra.hilbert import SallyFit
from filtra.ideals import LocalRing

from conftest import (CORPUS_DIR, GOLDEN_DIR, NON_MONOMIAL_DEPTH_ZERO,
                      graded_by_scan, torsion_free_quotient)


def pipeline(ring, filt, red_gens, horizon, power_bound=2):
    red = reduction_system(ring, red_gens)
    data = compute_boundary_data(verify_admissible(filt, red, horizon))
    conditions = evaluate_conditions(data, power_bound)
    structural = evaluate_structural(data)
    checks = run_checks(data, conditions, structural)
    return data, conditions, structural, {c["name"]: c for c in checks}


@pytest.fixture(scope="module")
def cusp():
    ring = LocalRing(("x", "y"), ["y^2 - x^3"])
    return pipeline(ring, Filtration(ring, ADIC, {1: ["x", "y"]}), ["x"], 10)


@pytest.fixture(scope="module")
def depth_zero():
    ring = LocalRing(("x", "y"), ["x^2", "x*y"])
    return pipeline(ring, Filtration(ring, ADIC, {1: ["x", "y"]}), ["y"], 10)


@pytest.fixture(scope="module")
def depth_zero_eq():
    ring = LocalRing(("x", "y"), ["x^2", "x*y"])
    filt = Filtration(ring, EXPLICIT, {1: ["x", "y"], 2: ["x", "y^2"]})
    return pipeline(ring, filt, ["y"], 10)


@pytest.fixture(scope="module")
def two_planes():
    ring = LocalRing(("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"])
    return pipeline(ring, Filtration(ring, ADIC, {1: ["x", "y", "z", "w"]}),
                    ["x - z", "y - w"], 8)


@pytest.fixture(scope="module")
def plane():
    ring = LocalRing(("x", "y"))
    return pipeline(ring, Filtration(ring, ADIC, {1: ["x", "y"]}), ["x", "y"], 8)


SALLY_GENS = ["x^4", "x^3*y", "x*y^3", "y^4"]


@pytest.fixture(scope="module")
def sally_adic():
    ring = LocalRing(("x", "y"))
    return pipeline(ring, Filtration(ring, ADIC, {1: SALLY_GENS}), ["x^4", "y^4"], 8)


@pytest.fixture(scope="module")
def sally_closed():
    ring = LocalRing(("x", "y"))
    return pipeline(ring, Filtration(ring, RATLIFF_RUSH, {1: SALLY_GENS}),
                    ["x^4", "y^4"], 8)


# -- frozen numbers --------------------------------------------------------

def test_cusp_numbers(cusp):
    data, conditions, structural, _ = cusp
    assert data.h_filt[:5] == [0, 1, 3, 5, 7]
    assert data.fit_filt.coefficients == (2, 1)
    assert data.fit_red.coefficients == (2, 0)
    assert data.sally.vanishes
    assert (data.lhs, data.rhs, data.gap) == (1, 1, 0)
    assert data.equality and data.second_nonnegative
    assert data.stage_one_colength == 1 and data.graded_colength == 1
    assert all(v["holds"] for v in conditions.values())
    assert structural["holds"]
    assert data.lengths.quotient is data.lengths  # W = 0: C is A


def test_depth_zero_numbers(depth_zero):
    data, conditions, structural, _ = depth_zero
    assert data.fit_filt.coefficients == (1, -1)
    assert data.fit_red.coefficients == (1, -1)
    assert (data.lhs, data.rhs, data.gap) == (0, -1, 1)
    assert not data.equality
    assert not data.second_nonnegative  # strictly negative second part
    assert data.sally.vanishes
    assert not conditions["c3_positive_depth"]["holds"]
    assert conditions["c3_positive_depth"]["torsion_length"] == 1
    quotient = data.lengths.quotient
    assert quotient.modulo is data.ring.torsion_ideal()
    assert quotient is data.lengths.quotient  # built once
    assert conditions["c0_d_sequence"]["holds"]
    assert conditions["c1_usd_bounded"]["holds"]
    assert conditions["c2_colon_in_i1"]["holds"]
    assert not structural["holds"]
    colon = structural["clause_colon"]
    assert not colon["holds"]
    assert colon["witness"] == {"i": 1, "generator": "x"}
    assert structural["clause_collapse"]["holds"]
    assert structural["clause_graded"]["holds"]


def test_depth_zero_equality_numbers(depth_zero_eq):
    data, conditions, structural, _ = depth_zero_eq
    assert data.h_filt[:5] == [0, 1, 2, 4, 5]
    assert data.fit_filt.coefficients == (1, -1)
    assert (data.lhs, data.rhs, data.gap) == (0, 0, 0)
    assert data.equality
    assert data.sally_values[:3] == [0, 1, 0]
    assert data.sally.dim == 0 and not data.sally.vanishes
    assert structural["holds"]
    assert not conditions["c3_positive_depth"]["holds"]


def test_two_planes_numbers(two_planes):
    data, conditions, structural, _ = two_planes
    assert data.d == 2
    assert data.fit_filt.coefficients == (2, 0, -1)
    assert data.fit_red.coefficients == (2, -1, 0)
    assert (data.lhs, data.rhs, data.gap) == (1, 0, 1)
    assert not data.equality
    assert data.graded_colength == 2
    assert all(conditions[k]["holds"] for k in
               ("c0_d_sequence", "c1_usd_bounded", "c2_colon_in_i1",
                "c3_positive_depth"))
    assert not structural["holds"]
    assert not structural["clause_colon"]["holds"]


def test_sally_adic_numbers(sally_adic):
    data, conditions, structural, _ = sally_adic
    assert data.h_filt[:3] == [0, 11, 36]
    assert data.fit_filt.coefficients == (16, 6, 0)
    assert data.fit_filt.postulation == 2
    assert data.fit_red.coefficients == (16, 0, 0)
    assert data.sally_values[:4] == [0, 2, 3, 4]
    assert data.sally.e_top == (1, 0) and data.sally.dim == 2
    assert (data.lhs, data.rhs, data.gap) == (6, 5, 1)
    assert data.stage_one_colength == 11 and data.graded_colength == 5
    assert all(v["holds"] for v in conditions.values())
    graded = structural["clause_graded"]
    assert not graded["holds"]
    assert graded["witness"]["n"] == 1
    assert graded["witness"]["generator"] == "x^2*y^6"


def test_sally_closed_numbers(sally_closed):
    data, conditions, structural, _ = sally_closed
    assert data.h_filt[:3] == [0, 10, 36]
    assert data.fit_filt.coefficients == (16, 6, 0)
    assert data.fit_filt.postulation == 0
    assert data.sally.vanishes
    assert (data.lhs, data.rhs, data.gap) == (6, 6, 0)
    assert data.stage_one_colength == 10 and data.graded_colength == 6
    assert data.equality
    assert structural["holds"]
    assert all(v["holds"] for v in conditions.values())


# -- frozen check outcomes -------------------------------------------------

def assert_no_failures(by_name):
    for c in by_name.values():
        assert c["status"] in ("pass", "skipped"), c


def test_cusp_checks(cusp):
    _, _, _, by = cusp
    assert_no_failures(by)
    assert by["master_inequality"]["status"] == "pass"
    assert by["boundary_equality"]["status"] == "pass"
    assert by["adic_collapse"]["status"] == "pass"
    assert by["coefficient_identities"]["status"] == "skipped"  # d = 1
    assert by["small_stage_two_collapse"]["status"] == "pass"
    assert by["base_reduction_equal"]["status"] == "skipped"
    assert by["sally_length_identity"]["details"]["holds_at_zero_informational"]
    fiber = by["fiber_cone_identity"]
    assert fiber["status"] == "pass"
    assert fiber["details"]["checked_range"] == [0, 9]
    mult = by["multiplicity_colon_formula"]
    assert mult["status"] == "pass"
    assert mult["details"]["expected"] == 2
    assert by["sally_coefficient_relations"]["details"]["branch"] == "small_dimension"
    assert by["fit_stability"]["status"] == "pass"


def test_depth_zero_checks(depth_zero):
    _, _, _, by = depth_zero
    assert_no_failures(by)
    master = by["master_inequality"]["details"]
    assert master["gap"] == 1 and not master["second_part_nonnegative"]
    assert by["boundary_equality"]["status"] == "pass"
    # the length identity needs n >= 1; at n = 0 it genuinely fails here
    assert not by["sally_length_identity"]["details"]["holds_at_zero_informational"]
    assert by["sally_length_identity"]["status"] == "pass"
    # the fiber-cone shadow holds from n = 0 even at depth zero
    assert by["fiber_cone_identity"]["status"] == "pass"
    red = by["torsion_quotient_reduction"]
    assert red["status"] == "pass"
    assert red["details"]["quotient_equality"] is True
    assert red["details"]["torsion_inside_stage2_plus_reduction"] is False
    assert red["details"]["quotient_gap"] == 0
    assert by["torsion_in_stage_two"]["status"] == "skipped"
    assert by["torsion_graded_pieces"]["status"] == "skipped"


def test_depth_zero_equality_checks(depth_zero_eq):
    _, _, _, by = depth_zero_eq
    assert_no_failures(by)
    assert by["boundary_equality"]["status"] == "pass"
    assert by["torsion_in_stage_two"]["status"] == "pass"
    assert by["torsion_in_stage_two"]["details"]["torsion_generators"] == ["x"]
    pieces = by["torsion_graded_pieces"]
    assert pieces["status"] == "pass"
    assert pieces["details"]["pieces"][:3] == [0, 0, 1]
    assert sum(pieces["details"]["pieces"]) == 1
    # positive-depth consequences stay off in a depth-zero ring
    assert by["adic_collapse"]["status"] == "skipped"
    assert by["sally_relations_at_equality"]["status"] == "skipped"
    red = by["torsion_quotient_reduction"]
    assert red["status"] == "pass"
    assert red["details"]["torsion_inside_stage2_plus_reduction"] is True


def test_two_planes_checks(two_planes):
    _, _, _, by = two_planes
    assert_no_failures(by)
    assert by["boundary_equality"]["status"] == "pass"  # both sides false
    assert by["coefficient_identities"]["status"] == "skipped"
    mult = by["multiplicity_colon_formula"]
    assert mult["status"] == "pass"
    assert mult["details"]["colength_modulo_reduction"] == 3
    assert mult["details"]["colon_correction"] == 1
    assert mult["details"]["expected"] == 2


def test_sally_adic_checks(sally_adic):
    _, _, _, by = sally_adic
    assert_no_failures(by)
    rel = by["sally_coefficient_relations"]
    assert rel["status"] == "pass"
    assert rel["details"]["branch"] == "full_dimension"
    assert by["fiber_cone_identity"]["status"] == "pass"
    bound = by["sally_lower_bound"]
    assert bound["status"] == "pass"
    assert bound["details"]["excess"] == 1 and bound["details"]["floor"] == 1
    assert by["multiplicity_colon_formula"]["details"]["expected"] == 16
    assert by["sally_relations_at_equality"]["status"] == "skipped"


def test_sally_closed_checks(sally_closed):
    _, _, _, by = sally_closed
    assert_no_failures(by)
    for name in ("boundary_equality", "adic_collapse", "coefficient_identities",
                 "small_stage_two_collapse", "torsion_in_stage_two"):
        assert by[name]["status"] == "pass", name
    ids = by["coefficient_identities"]["details"]
    assert ids["e2_actual"] == 0 and ids["e2_expected"] == 0
    small = by["small_stage_two_collapse"]["details"]
    assert small["cohen_macaulay"] and small["sally_vanishes"]
    assert small["stages_collapse"]


# -- harness behavior ------------------------------------------------------

def test_check_order_and_selection(cusp):
    data, conditions, structural, by = cusp
    assert list(by) == list(ALL_CHECKS)
    picked = run_checks(data, conditions, structural,
                        selected=("fit_stability", "master_inequality"))
    assert [c["name"] for c in picked] == ["master_inequality", "fit_stability"]


def test_out_of_range_coefficients(cusp):
    data = cusp[0]
    assert data.e_filt(0) == 2 and data.e_filt(1) == 1


def test_adic_collapse_reads_the_graded_clause(cusp):
    """Under its gate the torsion is zero, so the intersection half of
    adic_collapse is the structural graded clause, and the check reports
    that clause's witness."""
    data, conditions, structural, by = cusp
    assert by["adic_collapse"]["status"] == "pass"
    graded = {"holds": False, "range": [1, 9], "witness": {"n": 4, "generator": "x"}}
    failing = dict(structural, clause_graded=graded)
    (check,) = run_checks(data, conditions, failing, selected=("adic_collapse",))
    assert check["status"] == "fail"
    assert check["details"] == {"intersection_failed_at": 4}


# -- gates -----------------------------------------------------------------

def skipped_names(data, conditions, structural):
    return {c["name"] for c in run_checks(data, conditions, structural)
            if c["status"] == "skipped"}


def flip_condition(conditions, key):
    out = dict(conditions)
    out[key] = dict(out[key], holds=not out[key]["holds"])
    return out


# Written out by hand from the hypotheses of each consequence, not read from
# the checker: the checks skipped in k[x,y] with I_1 = Q = m (everything
# holds, d = 2, the Sally module vanishes) once one fact is switched off.
PLANE_SKIPPED_WHEN_OFF = {
    "c0_d_sequence": {"fiber_cone_identity", "sally_length_identity",
                      "sally_coefficient_relations", "sally_lower_bound"},
    "c1_usd_bounded": {"boundary_equality", "torsion_in_stage_two",
                       "adic_collapse", "coefficient_identities",
                       "multiplicity_colon_formula", "torsion_quotient_reduction",
                       "small_stage_two_collapse", "base_reduction_equal"},
    "c2_colon_in_i1": {"boundary_equality", "torsion_in_stage_two",
                       "adic_collapse", "coefficient_identities",
                       "fiber_cone_identity", "sally_length_identity",
                       "sally_coefficient_relations", "sally_lower_bound",
                       "torsion_quotient_reduction", "small_stage_two_collapse",
                       "base_reduction_equal"},
    "c3_positive_depth": {"adic_collapse", "coefficient_identities"},
    "equality": {"torsion_in_stage_two", "adic_collapse",
                 "coefficient_identities", "torsion_graded_pieces",
                 "small_stage_two_collapse", "base_reduction_equal"},
}


def test_gate_map(plane):
    data, conditions, structural, _ = plane
    assert data.d == 2 and data.equality and data.sally.vanishes
    assert all(v["holds"] for v in conditions.values())
    base = {"sally_relations_at_equality"}   # the Sally module vanishes
    assert skipped_names(data, conditions, structural) == base
    for fact, off in PLANE_SKIPPED_WHEN_OFF.items():
        if fact == "equality":
            got = skipped_names(data._replace(equality=False), conditions,
                                structural)
        else:
            got = skipped_names(data, flip_condition(conditions, fact),
                                structural)
        assert got == base | off, fact


def test_gate_map_sally_nonvanishing(depth_zero_eq):
    """At equality with a nonvanishing Sally module only positive depth keeps
    sally_relations_at_equality off; I_2 is not inside Q, I_1 is not Q, d = 1."""
    data, conditions, structural, _ = depth_zero_eq
    facts_off = {"small_stage_two_collapse", "base_reduction_equal",
                 "coefficient_identities"}
    assert skipped_names(data, conditions, structural) == facts_off | {
        "adic_collapse", "sally_relations_at_equality"}
    deep = flip_condition(conditions, "c3_positive_depth")
    assert skipped_names(data, deep, structural) == facts_off
    assert skipped_names(data._replace(equality=False), deep, structural) == {
        "torsion_in_stage_two", "adic_collapse", "coefficient_identities",
        "sally_relations_at_equality", "torsion_graded_pieces",
        "small_stage_two_collapse", "base_reduction_equal"}


def test_skipped_checks_keep_their_details(plane, depth_zero, sally_closed):
    data, conditions, structural, _ = plane
    off = {c["name"]: c for c in run_checks(
        data._replace(equality=False), flip_condition(conditions, "c1_usd_bounded"),
        structural)}
    assert off["boundary_equality"] == {
        "name": "boundary_equality", "applicable": False, "status": "skipped",
        "details": {"equality": False, "structural_holds": True}}
    assert off["small_stage_two_collapse"]["details"] == {
        "stage_two_inside_reduction": True}
    assert off["base_reduction_equal"]["details"] == {
        "stage_one_is_reduction": True}
    assert off["torsion_in_stage_two"]["details"] == {"torsion_generators": []}
    assert off["adic_collapse"] == {
        "name": "adic_collapse", "applicable": False, "status": "skipped"}
    by = depth_zero[3]
    assert by["torsion_in_stage_two"] == {
        "name": "torsion_in_stage_two", "applicable": False, "status": "skipped",
        "details": {"torsion_generators": ["x"]}}
    assert sally_closed[3]["base_reduction_equal"]["details"] == {
        "stage_one_is_reduction": False}


# -- the graded clause by lengths, against the intersection ----------------

GRADED_JOBS = [
    {"name": "curve_3_4", "field": "q",
     "ring": {"variables": ["x", "y"], "relations": ["y^3 - x^4"]},
     "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
     "reduction": {"generators": ["x"]}},
    {"name": "curve_2_5", "field": "fp:32003",
     "ring": {"variables": ["x", "y"], "relations": ["y^2 - x^5 + 3*x^4*y"]},
     "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
     "reduction": {"generators": ["x"]}},
    {"name": "monomial_2", "field": "q", "horizon": 6,
     "ring": {"variables": ["x", "y"]},
     "filtration": {"kind": "adic", "stages": {"1": ["x^3", "y^3", "x*y^2"]}},
     "reduction": {"generators": ["x^3", "y^3"]}},
    {"name": "monomial_3", "field": "fp:101", "horizon": 6,
     "ring": {"variables": ["x", "y", "z"]},
     "filtration": {"kind": "adic", "stages": {"1": ["x^2", "y^2", "z^2", "x*z"]}},
     "reduction": {"generators": ["x^2", "y^2", "z^2"]}},
]


def test_graded_clause_by_lengths_matches_the_intersection(monkeypatch):
    """Over every corpus job that reaches the structural condition and four
    generated ones, the length route decides the graded clause, and names
    the witness, exactly as building (Q^n + W) meet (I_{n+1} + W) does."""
    seen = {}
    structural = report.evaluate_structural

    def compared(data):
        out = structural(data)
        graded = out["clause_graded"]
        assert graded["witness"] == graded_by_scan(data, data.ring.torsion_ideal())
        assert graded["holds"] == (graded["witness"] is None)
        seen[cfg.name] = graded
        return out

    monkeypatch.setattr(report, "evaluate_structural", compared)
    configs = [load_config(p) for p in sorted(CORPUS_DIR.glob("*.json"))]
    configs += [parse_config(job) for job in GRADED_JOBS]
    for cfg in configs:
        report.run_job(cfg)
    assert {"curve_3_4", "curve_2_5", "monomial_2", "monomial_3",
            "sally_nonzero", "cusp", "two_planes"} <= set(seen)
    assert seen["sally_nonzero"]["witness"] == {"n": 1, "generator": "x^2*y^6"}


# -- lengths of m-primary pairs as colength differences ----------------------

def subquotient_route(data):
    """l(I_1/(I_2 + Q)), the colon correction l(col/(col meet Q)) in the
    torsion-free quotient, and the torsion pieces with the vanishing of
    I_H meet W, each by subquotient lengths and built intersections."""
    ring, filt, H, Q = data.ring, data.filt, data.horizon, data.red.handle
    graded = ring.subquotient_length(filt.i1, filt.get_ideal(2) + Q)
    C = torsion_free_quotient(ring)
    gens = list(data.red.generators)
    col = C.ideal(gens[:-1]).colon(gens[-1])
    correction = C.subquotient_length(col, col.intersect(C.ideal(gens))) if col.gens else 0
    W = ring.torsion_ideal()
    cuts = {n: filt.get_ideal(n).intersect(W) for n in range(3, H + 1)}
    pieces = [0, 0, ring.subquotient_length(W, cuts[3])]
    pieces += [ring.subquotient_length(cuts[n], cuts[n + 1]) for n in range(3, H)]
    return graded, correction, pieces, not cuts[H].gens


def random_depth_zero_tower(rng):
    """An admissible explicit tower over k[x, y]/(x^2, x y) and its
    horizon: Q = (y^a + c x), and stage n is (y^(n a) + d x, x) while n < t,
    then (y^(n a)), listed up to a random stage k >= t - 1.  Q lies in
    stage one only if c = 0 or x does."""
    a, t = rng.randint(1, 3), rng.randint(1, 4)
    c = rng.choice((0, 1, -2)) if t > 1 else 0
    stages = {}
    for n in range(1, max(t - 1, 1) + rng.randint(0, 2) + 1):
        d = rng.choice((0, 1, 3))
        stages[n] = [f"y^{n * a} + {d}*x", "x"] if n < t else [f"y^{n * a}"]
    return stages, [f"y^{a} + {c}*x"], t + rng.randint(3, 4)


def depth_zero_cases(configs=()):
    """(ring, filtration, reduction generators, horizon) of the corpus jobs
    with torsion, of ``configs``, and of 20 random admissible explicit towers
    over k[x, y]/(x^2, x y)."""
    configs = [load_config(CORPUS_DIR / name)
               for name in ("depth_zero.json", "depth_zero_equality.json")] + list(configs)
    cases = []
    for cfg in configs:
        ring = LocalRing(cfg.variables, cfg.relations)
        cases.append((ring, Filtration(ring, cfg.kind, cfg.stages),
                      list(cfg.generators), cfg.horizon))
    rng = random.Random(2718)
    for _ in range(20):
        ring = LocalRing(("x", "y"), ["x^2", "x*y"])
        stages, gens, H = random_depth_zero_tower(rng)
        cases.append((ring, Filtration(ring, EXPLICIT, stages), gens, H))
    return cases


def test_lengths_by_colength_differences_match_the_subquotient_route():
    """The graded colength, the multiplicity-colon correction and the torsion
    pieces are colength differences; they equal the subquotient lengths of
    built intersections on the corpus jobs with torsion and on random
    admissible explicit towers over k[x, y]/(x^2, x y)."""
    for ring, filt, gens, H in depth_zero_cases():
        red = reduction_system(ring, gens)
        data = compute_boundary_data(verify_admissible(filt, red, H))
        graded, correction, pieces, tail_empty = subquotient_route(data)
        colon = check_multiplicity_colon_formula(data)["details"]
        torsion = check_torsion_graded_pieces(data)["details"]
        assert data.graded_colength == graded
        assert colon["colon_correction"] == correction
        assert colon["expected"] == colon["colength_modulo_reduction"] - correction
        assert torsion["pieces"] == pieces
        assert torsion["total"] == sum(pieces)
        assert torsion["tail_vanishes"] == tail_empty


# -- the torsion-free quotient read in A -------------------------------------

def test_quotient_numbers_read_in_a_match_the_quotient_ring():
    """C = A/W built as its own ring is the reference: its explicit tower of
    the stages I_n C passes ``verify_admissible``, and its lengths, Sally
    values, gap and equality, and the multiplicity-colon numbers, equal
    those read in A as colengths of X + W.  Over the corpus jobs with
    torsion, five non-monomial depth-zero jobs and random towers.  In the
    fifth, q_1 = y does not kill W = (x + y^2), so (0 : y) is not (W : y);
    the check is called on it although c1 fails there and would skip it."""
    moved = {"name": "torsion_moved_by_q",
             "ring": {"variables": ["x", "y"], "relations": ["(x+y^2)^2", "(x+y^2)*y^2"]},
             "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
             "reduction": {"generators": ["y"]}}
    nm = [parse_config(job) for job in NON_MONOMIAL_DEPTH_ZERO + [moved]]
    cases = depth_zero_cases(nm)
    assert len(cases) == 27
    for ring, filt, gens, H in cases:
        red = reduction_system(ring, gens)
        lengths = verify_admissible(filt, red, H)
        assert ring.torsion_ideal().gens
        read = compute_boundary_data(lengths.quotient)
        C = torsion_free_quotient(ring)
        cfilt = Filtration(C, EXPLICIT,
                           {n: filt.get_ideal(n).gens for n in range(1, H + 1)})
        cred = reduction_system(C, list(red.generators))
        built = compute_boundary_data(verify_admissible(cfilt, cred, H))
        assert C.dimension == ring.dimension
        for field in ("h_filt", "h_red", "sally_values", "gap", "equality"):
            assert getattr(read, field) == getattr(built, field), field
        colon = check_multiplicity_colon_formula(compute_boundary_data(lengths))["details"]
        first = cred.handle.finite_colength()
        col = C.ideal(list(cred.generators[:-1])).colon(cred.generators[-1])
        assert colon["colength_modulo_reduction"] == first
        assert colon["expected"] == (col + cred.handle).finite_colength()


def test_every_job_builds_one_ring(census):
    """Each corpus job and each non-monomial depth-zero job builds a single
    LocalRing; depth-zero jobs built two while the torsion checks built A/W
    as a ring of its own."""
    configs = [load_config(p) for p in sorted(CORPUS_DIR.glob("*.json"))]
    assert len(configs) == 13
    configs += [parse_config(job) for job in NON_MONOMIAL_DEPTH_ZERO]
    for cfg in configs:
        census.clear()
        out = report.run_job(cfg)
        assert out["verdict"] == "verified", cfg.name
        assert census["rings"] == 1, cfg.name
        if cfg.name.startswith("nm"):
            assert out["ring"]["torsion_length"] == 1
            statuses = {c["name"]: c["status"] for c in out["checks"]}
            assert statuses["torsion_quotient_reduction"] == "pass"
            assert statuses["multiplicity_colon_formula"] == "pass"


# -- nested equalities decided by lengths ------------------------------------

def length_decisions(data):
    """The three nested equalities and one containment as the checks decide
    them, from lengths: I_{n+1} = Q^n I_1 for n < H, I_n = Q^n for n <= H,
    I_1 = Q, and I_2 inside Q."""
    return (check_small_stage_two_collapse(data)["details"]["stages_collapse"],
            check_base_reduction_equal(data)["details"]["collapses_to_powers"],
            _FACTS["stage_one_is_reduction"](data),
            _FACTS["stage_two_inside_reduction"](data))


def ideal_scans(data):
    """The same four by comparing ideals stage by stage."""
    filt, H, Q = data.filt, data.horizon, data.red.handle
    return (all(filt.get_ideal(n + 1).equals_local(Q.power(n) * filt.i1)
                for n in range(1, H)),
            all(filt.get_ideal(n).equals_local(Q.power(n)) for n in range(1, H + 1)),
            filt.i1.equals_local(Q),
            Q.contains_ideal(filt.get_ideal(2)))


def admissible_data(cfg):
    """Boundary data of a job, built as ``run_job`` builds it."""
    ring = LocalRing(cfg.variables, cfg.relations,
                     field=field_from_descriptor(cfg.field_descriptor))
    filt = Filtration(ring, cfg.kind, cfg.stages)
    if cfg.generators is not None:
        red = reduction_system(ring, list(cfg.generators))
    else:
        red = find_reduction(filt, cfg.horizon, seed=cfg.search_seed,
                             attempts=cfg.search_attempts)
    return compute_boundary_data(verify_admissible(filt, red, cfg.horizon))


def test_nested_equalities_by_lengths_match_the_ideal_scans():
    """On every corpus job, every digest job and random admissible explicit
    towers over k[x, y]/(x^2, x y), whether or not a gate would hold, the
    length decisions agree with comparing the ideals."""
    configs = [load_config(p) for p in sorted(CORPUS_DIR.glob("*.json"))]
    digests = json.loads((GOLDEN_DIR / "report_digests.json").read_text())
    configs += [parse_config(e["config"]) for e in digests]
    cases = [admissible_data(cfg) for cfg in configs]
    rng = random.Random(3141)
    towers = [random_depth_zero_tower(rng) for _ in range(30)]
    # stage one is the reduction Q = (x + y), yet I_4 = I_3 = (y^3) is not Q I_3
    towers.append(({1: ["x + y"], 2: ["y^2"], 3: ["y^3"], 4: ["y^3"]}, ["x + y"], 6))
    for stages, gens, H in towers:
        ring = LocalRing(("x", "y"), ["x^2", "x*y"])
        filt, red = Filtration(ring, EXPLICIT, stages), reduction_system(ring, gens)
        cases.append(compute_boundary_data(verify_admissible(filt, red, H)))
    seen, inside = set(), set()
    for data in cases:
        decided = length_decisions(data)
        assert decided == ideal_scans(data), data.ring
        seen.add(decided[:3])
        inside.add(decided[3])
    # every outcome that admissibility allows: I_1 = Q with and without
    # I_n = Q^n, and a collapse with and without I_1 = Q
    assert {(True, True, True), (True, False, False), (False, False, False),
            (False, False, True)} <= seen
    assert inside == {True, False}
    sally = admissible_data(load_config(CORPUS_DIR / "sally_nonzero.json"))
    assert any(sally.sally_values[1:])
    assert length_decisions(sally)[0] is False


# -- the Sally relations read e_top ------------------------------------------

def two_branch_relations(d, sally, e_filt, e_red, ell):
    """sally_coefficient_relations' mismatches and sally_lower_bound's floor
    as they were computed from the re-based vector ``e`` of a module of
    dimension s, with a branch for s == d."""
    s = sally.dim

    def eS(i):
        return sally.e[i] if 0 <= i < len(sally.e) else 0

    mism = {}
    if s == d:
        want = e_filt[0] + e_red[1] - ell + eS(0)
        if e_filt[1] != want:
            mism["e1"] = {"actual": e_filt[1], "expected": want}
        for i in range(2, d + 1):
            want = e_red[i - 1] + e_red[i] + eS(i - 1)
            if e_filt[i] != want:
                mism[f"e{i}"] = {"actual": e_filt[i], "expected": want}
    else:
        want = e_filt[0] + e_red[1] - ell
        if e_filt[1] != want:
            mism["e1"] = {"actual": e_filt[1], "expected": want}
        sign = -1 if (d - s) % 2 else 1
        for i in range(2, d + 1):
            want = e_red[i - 1] + e_red[i]
            if i >= d - s + 1:
                want += sign * eS(i - d + s - 1)
            if e_filt[i] != want:
                mism[f"e{i}"] = {"actual": e_filt[i], "expected": want}
    return mism, (eS(0) if s == d else 0)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sally_relations_from_e_top_match_the_two_branch_formulas(data):
    """For d = 1..5 and every number j of leading zeros of e_top, a SallyFit
    shaped as ``fit_sally`` shapes it gives the same mismatches and floor
    through e_top as through the sign-twisted e."""
    small = st.integers(-5, 5)
    for d in range(1, 6):
        for j in range(d + 1):
            tail = data.draw(st.lists(small, min_size=d - j, max_size=d - j))
            if tail:  # fit_sally insists on a positive leading coefficient of e
                tail[0] = (-1) ** j * data.draw(st.integers(1, 5))
            sign = -1 if j % 2 else 1
            sally = SallyFit((0,) * j + tuple(tail), tuple(sign * c for c in tail),
                             d - j, not tail)
            e_red = data.draw(st.lists(small, min_size=d + 1, max_size=d + 1))
            ell = data.draw(st.integers(1, 5))
            # e_1..e_d: each the value its relation expects, or off it
            e_filt = [data.draw(st.integers(1, 9))] + [0] * d
            expected = two_branch_relations(d, sally, e_filt, e_red, ell)[0]
            for i in range(1, d + 1):
                base = expected[f"e{i}"]["expected"] if f"e{i}" in expected else 0
                e_filt[i] = base + data.draw(st.sampled_from((0, 0, 1, -2)))
            fake = SimpleNamespace(d=d, sally=sally, stage_one_colength=ell,
                                   e_filt=e_filt.__getitem__, e_red=e_red.__getitem__)
            mism, floor = two_branch_relations(d, sally, e_filt, e_red, ell)
            relations = check_sally_coefficient_relations(fake)
            assert relations["details"]["mismatches"] == mism
            assert relations["status"] == ("fail" if mism else "pass")
            assert check_sally_lower_bound(fake)["details"]["floor"] == floor
