"""Boundary data, the dual-path characterization and the consequence checks,
frozen instance by instance.

Every number asserted here was derived by hand from the staircase structure
of the instance before the pipeline existed; the pipeline has to reproduce
them, not the other way round.
"""
from dataclasses import replace

import pytest

from filtra.checkers import (ALL_CHECKS, compute_boundary_data,
                             evaluate_conditions, evaluate_structural,
                             run_checks)
from filtra.filtration import (adic_filtration, explicit_filtration,
                               ratliff_rush_filtration, reduction_system)
from filtra.ideals import LocalRing


def pipeline(ring, filt, red_gens, horizon, power_bound=2):
    red = reduction_system(ring, red_gens)
    data = compute_boundary_data(ring, filt, red, horizon)
    conditions = evaluate_conditions(ring, filt, red, power_bound)
    structural = evaluate_structural(data, ring.torsion_ideal())
    checks = run_checks(data, conditions, structural)
    return data, conditions, structural, {c["name"]: c for c in checks}


@pytest.fixture(scope="module")
def cusp():
    ring = LocalRing(("x", "y"), ["y^2 - x^3"])
    return pipeline(ring, adic_filtration(ring, ["x", "y"]), ["x"], 10)


@pytest.fixture(scope="module")
def depth_zero():
    ring = LocalRing(("x", "y"), ["x^2", "x*y"])
    return pipeline(ring, adic_filtration(ring, ["x", "y"]), ["y"], 10)


@pytest.fixture(scope="module")
def depth_zero_eq():
    ring = LocalRing(("x", "y"), ["x^2", "x*y"])
    filt = explicit_filtration(ring, {1: ["x", "y"], 2: ["x", "y^2"]})
    return pipeline(ring, filt, ["y"], 10)


@pytest.fixture(scope="module")
def two_planes():
    ring = LocalRing(("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"])
    return pipeline(ring, adic_filtration(ring, ["x", "y", "z", "w"]),
                    ["x - z", "y - w"], 8)


@pytest.fixture(scope="module")
def plane():
    ring = LocalRing(("x", "y"))
    return pipeline(ring, adic_filtration(ring, ["x", "y"]), ["x", "y"], 8)


SALLY_GENS = ["x^4", "x^3*y", "x*y^3", "y^4"]


@pytest.fixture(scope="module")
def sally_adic():
    ring = LocalRing(("x", "y"))
    return pipeline(ring, adic_filtration(ring, SALLY_GENS), ["x^4", "y^4"], 8)


@pytest.fixture(scope="module")
def sally_closed():
    ring = LocalRing(("x", "y"))
    return pipeline(ring, ratliff_rush_filtration(ring, SALLY_GENS),
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
    assert data.sally.e_coeff(7) == 0


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
            got = skipped_names(replace(data, equality=False), conditions,
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
    assert skipped_names(replace(data, equality=False), deep, structural) == {
        "torsion_in_stage_two", "adic_collapse", "coefficient_identities",
        "sally_relations_at_equality", "torsion_graded_pieces",
        "small_stage_two_collapse", "base_reduction_equal"}


def test_skipped_checks_keep_their_details(plane, depth_zero, sally_closed):
    data, conditions, structural, _ = plane
    off = {c["name"]: c for c in run_checks(
        replace(data, equality=False), flip_condition(conditions, "c1_usd_bounded"),
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
