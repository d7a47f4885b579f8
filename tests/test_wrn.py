import math
from fractions import Fraction

import pytest

from qnetcap.channels import AmplitudeDamping, Identity, ThermalLoss
from qnetcap.errors import DomainError, FamilyError, MonotonicityError, NotAttainableError
from qnetcap.network import annotate_uniform, apply_split, validate
from qnetcap.routing import max_flow
from qnetcap.wrn import (
    CELL_MANHATTAN,
    CELL_TRIANGULAR,
    DIRECTION_MAX,
    DIRECTION_MIN,
    ThresholdResult,
    WrnSpec,
    bound_functions,
    connectivity,
    delta,
    edge_count,
    generate,
    min_nodal_density,
    node_count,
    omega,
    solve_at_scale,
    solve_threshold,
    threshold_report,
    verify_theorem2,
)


def tri_spec(**kw):
    base = dict(cell_type=CELL_TRIANGULAR, radius=2, edge_length_km=1.0, family="ad")
    base.update(kw)
    return WrnSpec(**base)


def man_spec(**kw):
    base = dict(cell_type=CELL_MANHATTAN, radius=2, edge_length_km=1.0, family="tl")
    base.update(kw)
    return WrnSpec(**base)


def test_delta_values():
    assert delta(6, ((2,) * 6,)) == 18
    assert delta(8, ((2, 2, 2, 2, 4, 4, 4, 4),)) == 32
    # min over the superset wins
    assert delta(4, ((0, 0, 0, 0), (3, 3, 3, 3))) == 0


def test_delta_domain():
    with pytest.raises(DomainError):
        delta(6, ())
    with pytest.raises(DomainError):
        delta(6, ((2, 2),))
    with pytest.raises(DomainError):
        delta(6, ((2, 2, 2, 2, 2, 6),))


def test_omega_values():
    assert omega(6, 18) == Fraction(90, 13)
    assert omega(8, 32) == Fraction(224, 25)
    with pytest.raises(DomainError):
        omega(6, 5)
    with pytest.raises(DomainError):
        omega(6, 4)


def test_spec_validation():
    with pytest.raises(DomainError):
        tri_spec(radius=1)
    with pytest.raises(DomainError):
        tri_spec(cell_type="square4")
    with pytest.raises(DomainError):
        tri_spec(edge_length_km=0.0)
    with pytest.raises(DomainError):
        tri_spec(family="bosonic")
    with pytest.raises(FamilyError):
        tri_spec(recv=ThermalLoss(0.9, 0.0))
    with pytest.raises(FamilyError):
        man_spec(send=AmplitudeDamping(0.1))


def test_spec_derived_fields():
    t = tri_spec()
    assert t.k == 6
    assert t.commonalities == ((2, 2, 2, 2, 2, 2),)
    assert t.xi_geom == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
    m = man_spec()
    assert m.k == 8
    assert m.commonalities == ((2, 2, 2, 2, 4, 4, 4, 4),)
    assert m.xi_geom == 2.0


@pytest.mark.parametrize("radius", [2, 3, 4])
@pytest.mark.parametrize("cell", [CELL_TRIANGULAR, CELL_MANHATTAN])
def test_generate_counts_and_structure(cell, radius):
    fam = "ad" if cell == CELL_TRIANGULAR else "tl"
    spec = WrnSpec(cell_type=cell, radius=radius, edge_length_km=2.0, family=fam)
    g = generate(spec)
    assert len(g.nodes) == node_count(spec)
    assert len(g.edges) == edge_count(spec)
    assert g.users == ("n-2_0", "n2_0")
    assert g.family == fam
    assert validate(g) == []
    degrees = {n: 0 for n in g.nodes}
    for e in g.edges:
        degrees[e.a] += 1
        degrees[e.b] += 1
    for user in g.users:
        assert degrees[user] == spec.k
        assert g.nodes[user].role == "user"
    assert max(degrees.values()) == spec.k


def test_generate_users_not_adjacent():
    g = generate(tri_spec())
    for e in g.edges:
        assert set(e.endpoints()) != set(g.users)


def test_generated_lattice_interior_commonality():
    spec = man_spec()
    g = generate(spec)
    nbrs = {n: set() for n in g.nodes}
    for e in g.edges:
        nbrs[e.a].add(e.b)
        nbrs[e.b].add(e.a)
    lam = tuple(sorted(len(nbrs[x] & nbrs["n0_0"]) for x in nbrs["n0_0"]))
    assert lam == (2, 2, 2, 2, 4, 4, 4, 4)


def test_connectivity_constants():
    d, w = connectivity(tri_spec())
    assert (d, w) == (18, Fraction(90, 13))
    d, w = connectivity(man_spec())
    assert (d, w) == (32, Fraction(224, 25))


def test_solve_threshold_analytic():
    # F(x) = 1/x is decreasing: F(x*) = target/scale -> x* = scale/target
    xi = solve_threshold(lambda x: 1.0 / x, target=2.0, scale=4.0)
    assert xi == pytest.approx(2.0, rel=1e-9)
    # increasing function
    xi = solve_threshold(lambda x: x * x, target=9.0, scale=1.0)
    assert xi == pytest.approx(3.0, rel=1e-9)


def test_solve_threshold_direction_check():
    with pytest.raises(MonotonicityError):
        solve_threshold(lambda x: 1.0 / x, 2.0, 4.0, direction=DIRECTION_MIN)
    assert solve_threshold(lambda x: 1.0 / x, 2.0, 4.0, direction=DIRECTION_MAX) == pytest.approx(2.0)


def test_solve_threshold_rejects_non_monotone():
    with pytest.raises(MonotonicityError):
        solve_threshold(lambda x: math.sin(x), 0.1, 1.0, bracket=(1.0, 100.0))
    with pytest.raises(MonotonicityError):
        solve_threshold(lambda x: 1.0, 0.5, 1.0)
    # Monotone but discontinuous: bisection closes in on the step and the
    # residual can never be met.
    with pytest.raises(MonotonicityError, match="step discontinuously"):
        solve_threshold(lambda x: 1.0 if x >= 3.0 else 0.0, 0.5, 1.0)


def test_solve_threshold_not_attainable():
    # bounded above by 1, target needs 2
    with pytest.raises(NotAttainableError):
        solve_threshold(lambda x: 1.0 / (1.0 + x), 2.0, 1.0)


def test_solve_threshold_bad_target():
    with pytest.raises(DomainError):
        solve_threshold(lambda x: 1.0 / x, 0.0, 1.0)
    with pytest.raises(DomainError):
        solve_threshold(lambda x: 1.0 / x, 1.0, -2.0)


def test_threshold_report_brackets_and_residual():
    spec = man_spec()
    bulk, user = threshold_report(spec, 1e-2, "edgeLength")
    assert bulk.param == "edgeLength"
    assert bulk.scale_name == "delta" and user.scale_name == "omega"
    assert bulk.direction == DIRECTION_MAX
    lo, hi = bulk.bracket
    assert lo <= hi
    lower_fn, upper_fn, _ = bound_functions(spec, "edgeLength")
    assert lower_fn(bulk.from_lower_fn) * 32.0 == pytest.approx(1e-2, rel=1e-6)
    assert upper_fn(bulk.from_upper_fn) * 32.0 == pytest.approx(1e-2, rel=1e-6)
    # user edges carry less per-edge burden than bulk edges (omega < delta),
    # so their tolerable length is shorter
    assert user.bracket[0] < bulk.bracket[0]


def test_threshold_result_json_shape():
    r = ThresholdResult(
        param="edgeLength",
        scale_name="delta",
        scale=32.0,
        target=0.01,
        direction=DIRECTION_MAX,
        from_lower_fn=91.0,
        from_upper_fn=126.0,
    )
    data = r.as_json()
    assert data == {
        "param": "edgeLength",
        "x": "delta",
        "bracket": [91.0, 126.0],
        "direction": "maxTolerable",
        "target": 0.01,
    }
    assert list(data) == ["param", "x", "bracket", "direction", "target"]


def test_param_family_guards():
    with pytest.raises(FamilyError):
        bound_functions(man_spec(), "internalLoss")
    with pytest.raises(FamilyError):
        bound_functions(tri_spec(), "receiverNoise")
    with pytest.raises(DomainError):
        bound_functions(tri_spec(), "edgeCount")
    with pytest.raises(FamilyError):
        bound_functions(tri_spec(), "edgeLength", qkd_setup=object())


def test_internal_loss_solve():
    spec = tri_spec(edge_length_km=50.0)
    bulk, _ = threshold_report(spec, 1e-3, "internalLoss")
    lo, hi = bulk.bracket
    assert 0.0 < lo <= hi < 1.0
    lower_fn, _, _ = bound_functions(spec, "internalLoss")
    assert lower_fn(bulk.from_lower_fn) * 18.0 == pytest.approx(1e-3, rel=1e-6)


def test_internal_loss_solve_meets_residual_where_steep():
    # At a small target the width stop alone leaves the residual above 1e-6.
    spec = tri_spec(edge_length_km=10.0)
    scale = float(delta(spec.k, spec.commonalities))
    goal = 1e-3 / scale
    for fn in bound_functions(spec, "internalLoss")[:2]:
        xi = solve_threshold(fn, 1e-3, scale, bracket=(1e-6, 1.0 - 1e-9))
        assert abs(fn(xi) - goal) <= 1e-6 * goal


def test_solve_at_scale_marks_unattainable_sides():
    spec = man_spec()
    result = solve_at_scale(spec, 1e9, "edgeLength", "delta")
    assert math.isnan(result.from_lower_fn) and math.isnan(result.from_upper_fn)
    assert isinstance(result.unattainable, NotAttainableError)
    with pytest.raises(NotAttainableError):
        threshold_report(spec, 1e9, "edgeLength")
    bulk, user = threshold_report(spec, 1e-2, "edgeLength")
    assert solve_at_scale(spec, 1e-2, "edgeLength", "delta") == bulk
    assert solve_at_scale(spec, 1e-2, "edgeLength", "omega") == user
    with pytest.raises(DomainError):
        solve_at_scale(spec, 1e-2, "edgeLength", "kappa")


@pytest.mark.parametrize("spec,param,other", [
    (tri_spec(), "edgeLength", "ad_squashed"),
    (tri_spec(), "internalLoss", "ad_squashed"),
    (man_spec(), "edgeLength", "tl_ree"),
    (man_spec(), "receiverNoise", "tl_ree"),
])
def test_bound_functions_evaluate_one_side(monkeypatch, spec, param, other):
    import qnetcap.bounds as bounds_mod

    lower_fn, upper_fn, _ = bound_functions(spec, param)
    expected_upper = upper_fn(0.1)

    def forbidden(*args):
        raise AssertionError(f"{other} evaluated for the lower side")

    monkeypatch.setattr(bounds_mod, other, forbidden)
    lower_fn(0.1)
    monkeypatch.undo()
    lower_name = "ad_rci" if other == "ad_squashed" else "tl_rci"
    monkeypatch.setattr(bounds_mod, lower_name, forbidden)
    assert upper_fn(0.1) == expected_upper


def test_receiver_noise_solve():
    spec = man_spec(edge_length_km=20.0)
    bulk, _ = threshold_report(spec, 1e-2, "receiverNoise")
    lo, hi = bulk.bracket
    assert 0.0 < lo <= hi
    assert bulk.direction == DIRECTION_MAX


def test_min_nodal_density():
    r = min_nodal_density(100.0, CELL_TRIANGULAR)
    assert r.rho_min == pytest.approx(2.0 / math.sqrt(3.0) / 1e4, rel=1e-12)
    r = min_nodal_density(183.2186, CELL_MANHATTAN)
    assert r.rho_min == pytest.approx(5.958e-5, rel=1e-3)
    with pytest.raises(DomainError):
        min_nodal_density(0.0, CELL_TRIANGULAR)
    with pytest.raises(DomainError):
        min_nodal_density(10.0, "hexagon")


@pytest.mark.parametrize("cell,fam,radius", [
    pytest.param(CELL_TRIANGULAR, "ad", 2, id="triangular6-ad"),
    pytest.param(CELL_MANHATTAN, "tl", 2, id="manhattan8-tl"),
    pytest.param(CELL_TRIANGULAR, "ad", 20, id="triangular6-ad-r20"),
    pytest.param(CELL_MANHATTAN, "tl", 20, id="manhattan8-tl-r20"),
])
def test_verify_theorem2(cell, fam, radius):
    spec = WrnSpec(cell_type=cell, radius=radius, edge_length_km=5.0, family=fam)
    assert verify_theorem2(spec, 0.37)


def test_verify_theorem2_guards():
    with pytest.raises(DomainError):
        verify_theorem2("not a spec", 1.0)
    with pytest.raises(DomainError):
        verify_theorem2(tri_spec(), 0.0)


def test_uniform_lattice_flooding_equals_k_c():
    # the consequence verify_theorem2 wraps, checked against the raw solver
    spec = tri_spec(radius=3)
    bg = annotate_uniform(generate(spec), 1.25)
    assert max_flow(bg, "lower").value == pytest.approx(6 * 1.25, abs=1e-9)


def test_generated_lattice_survives_apply_split():
    spec = man_spec(radius=2, edge_length_km=10.0)
    bg = apply_split(generate(spec))
    assert len(bg.edges) == edge_count(spec)
    first = bg.edges[0].bounds
    assert 0.0 < first.lower <= first.upper
