import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnetcap import wrn
from qnetcap import bounds
from qnetcap.bounds import bound_columns, compounds, squashed_entanglement
from qnetcap.channels import (
    AmplitudeDamping,
    ThermalLoss,
    fibre_transmissivity,
    native,
)
from qnetcap.cli import main
from qnetcap.errors import DomainError, FamilyError, MonotonicityError, NotAttainableError
from qnetcap.network import annotate_uniform, apply_split, validate
from qnetcap.oracles import check_weak_regularity, edge_count, node_count, verify_theorem2
from qnetcap.qkd import from_preset
from qnetcap.routing import capacity_report, max_flow
from qnetcap.wrn import (
    BRACKET_START,
    CELL_MANHATTAN,
    CELL_TRIANGULAR,
    DIRECTION_MAX,
    DIRECTION_MIN,
    ThresholdResult,
    WrnSpec,
    _scan,
    _solve,
    bound_functions,
    connectivity,
    delta,
    generate,
    min_nodal_density,
    omega,
    threshold_report,
    thresholds,
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
    assert omega(6, 18) == (90, 13)
    assert omega(8, 32) == (224, 25)
    assert omega(4, 6) == (6, 1)
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
    # A template that is not a channel spec is named as such, not as a channel of the other family.
    with pytest.raises(FamilyError) as not_a_channel:
        WrnSpec("triangular6", 2, 10.0, "ad", recv=0.3)
    assert str(not_a_channel.value) == "not a channel spec or fibre: 0.3"


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
    assert len(g.a) == len(g.b) == len(g.cls) == edge_count(spec)
    assert g.users == ("n-2_0", "n2_0")
    assert g.family == fam
    assert validate(g) == []
    degrees = {n: 0 for n in g.nodes}
    for u, v in zip(g.a, g.b):
        degrees[g.names[u]] += 1
        degrees[g.names[v]] += 1
    for user in g.users:
        assert degrees[user] == spec.k
        assert g.nodes[user].role == "user"
    assert max(degrees.values()) == spec.k


def test_generate_users_not_adjacent():
    g = generate(tri_spec())
    for u, v in zip(g.a, g.b):
        assert {g.names[u], g.names[v]} != set(g.users)


def test_generated_lattice_interior_commonality():
    spec = man_spec()
    g = generate(spec)
    nbrs = {n: set() for n in g.nodes}
    for u, v in zip(g.a, g.b):
        nbrs[g.names[u]].add(g.names[v])
        nbrs[g.names[v]].add(g.names[u])
    lam = tuple(sorted(len(nbrs[x] & nbrs["n0_0"]) for x in nbrs["n0_0"]))
    assert lam == (2, 2, 2, 2, 4, 4, 4, 4)


@pytest.mark.parametrize("radius", [2, 3, 5, 10, 20])
@pytest.mark.parametrize("cell", [CELL_TRIANGULAR, CELL_MANHATTAN])
def test_generated_patches_are_weakly_regular(cell, radius):
    spec = WrnSpec(cell_type=cell, radius=radius, edge_length_km=1.0, family="tl")
    g = generate(spec)
    check_weak_regularity(g, spec)
    # Dropping an edge at the centre changes its common neighbours' multisets.
    keep = [i for i, (u, v) in enumerate(zip(g.a, g.b)) if {g.names[u], g.names[v]} != {"n0_0", "n1_0"}]
    assert len(keep) == len(g.a) - 1
    dropped = g._replace(**{column: tuple(getattr(g, column)[i] for i in keep)
                            for column in ("a", "b", "cls")})
    with pytest.raises(DomainError, match="commonality multiset"):
        check_weak_regularity(dropped, spec)


def test_omega_is_the_reduced_fraction():
    for k in range(2, 13):
        for d in range(k, 80):
            num, den = omega(k, d)
            exact = Fraction(d * (k - 1), d - k + 1)
            assert (num, den) == (exact.numerator, exact.denominator)
            assert num / den == float(exact)  # the scale every target is divided by, bit for bit


def test_connectivity_constants():
    d, w = connectivity(tri_spec())
    assert (d, w) == (18, (90, 13))
    d, w = connectivity(man_spec())
    assert (d, w) == (32, (224, 25))


def test_solve_threshold_analytic():
    # F(x) = 1/x is decreasing: F(x*) = target/scale -> x* = scale/target
    fn = lambda x: 1.0 / x
    xi = _solve(fn, 2.0, 4.0, BRACKET_START, _scan(fn, BRACKET_START))
    assert xi == pytest.approx(2.0, rel=1e-9)
    # increasing function
    fn = lambda x: x * x
    xi = _solve(fn, 9.0, 1.0, BRACKET_START, _scan(fn, BRACKET_START))
    assert xi == pytest.approx(3.0, rel=1e-9)


def test_solve_threshold_rejects_non_monotone():
    with pytest.raises(MonotonicityError):
        _solve(math.sin, 0.1, 1.0, (1.0, 100.0), _scan(math.sin, (1.0, 100.0)))
    # Constant at or above the per-edge goal: no crossing to bracket.
    for level in (1.0, 0.5):
        fn = lambda x: level
        with pytest.raises(MonotonicityError, match="constant"):
            _solve(fn, 0.5, 1.0, BRACKET_START, _scan(fn, BRACKET_START))
    # Monotone but discontinuous: bisection closes in on the step and the
    # residual can never be met.
    fn = lambda x: 1.0 if x >= 3.0 else 0.0
    with pytest.raises(MonotonicityError, match="step discontinuously"):
        _solve(fn, 0.5, 1.0, BRACKET_START, _scan(fn, BRACKET_START))


def test_solve_threshold_not_attainable():
    # bounded above by 1, target needs 2
    fn = lambda x: 1.0 / (1.0 + x)
    with pytest.raises(NotAttainableError):
        _solve(fn, 2.0, 1.0, BRACKET_START, _scan(fn, BRACKET_START))
    # constant below the goal on the whole bracket
    fn = lambda x: 0.0
    with pytest.raises(NotAttainableError, match="constant at 0"):
        _solve(fn, 0.5, 1.0, BRACKET_START, _scan(fn, BRACKET_START))


def test_solve_threshold_bad_target():
    fn = lambda x: 1.0 / x
    with pytest.raises(DomainError):
        _solve(fn, 0.0, 1.0, BRACKET_START, _scan(fn, BRACKET_START))
    with pytest.raises(DomainError):
        _solve(fn, 1.0, -2.0, BRACKET_START, _scan(fn, BRACKET_START))
    # A reversed, empty or unbounded bracket; a NaN end is a DOMAIN_CHECKS case.
    for lo, hi in ((1e3, 1e-6), (1.0, 1.0), (1e-6, math.inf), (1e-6, math.nan)):
        with pytest.raises(DomainError) as raised:
            _solve(fn, 1.0, 1.0, (lo, hi), _scan(fn, (lo, hi)))
        assert str(raised.value) == f"search bracket must satisfy 0 < lo < hi < inf, got [{lo}, {hi}]"


def _reference_scan_direction(fn, lo, hi, goal):
    """The solver's direction scan as it was before one scan served every goal."""
    if lo <= 0.0:
        raise DomainError(f"search bracket must be positive, got [{lo}, {hi}]")
    ratio = (hi / lo) ** (1.0 / (wrn.MONOTONE_SAMPLES - 1))
    xs = [lo * ratio**i for i in range(wrn.MONOTONE_SAMPLES - 1)] + [hi]
    values = [fn(x) for x in xs]
    rises = any(b > a for a, b in zip(values, values[1:]))
    falls = any(b < a for a, b in zip(values, values[1:]))
    if rises and falls:
        raise MonotonicityError("bound function is not monotone on the search bracket")
    if not rises and not falls:
        if values[0] < goal:
            raise NotAttainableError("bound function is constant below the goal")
        raise MonotonicityError("bound function is constant on the search bracket")
    return DIRECTION_MIN if rises else DIRECTION_MAX


def _reference_solve(fn, target, scale, bracket):
    """The solver as it was before its two bisection loops became one."""
    if target <= 0.0 or math.isnan(target):
        raise DomainError(f"capacity target must be > 0, got {target}")
    if scale <= 0.0:
        raise DomainError(f"scale must be > 0, got {scale}")
    goal = target / float(scale)
    lo, hi = bracket
    found = _reference_scan_direction(fn, lo, hi, goal)
    sign = -1.0 if found == DIRECTION_MAX else 1.0

    def residual(x):
        return sign * (fn(x) - goal)

    r_lo, r_hi = residual(lo), residual(hi)
    try:
        expansions = 0
        while r_lo > 0.0 and expansions < wrn.MAX_EXPANSIONS:
            lo /= 2.0
            r_lo = residual(lo)
            expansions += 1
        expansions = 0
        while r_hi < 0.0 and expansions < wrn.MAX_EXPANSIONS:
            hi *= 2.0
            r_hi = residual(hi)
            expansions += 1
    except DomainError as exc:
        raise NotAttainableError(str(exc)) from exc
    if r_lo > 0.0 or r_hi < 0.0:
        raise NotAttainableError("out of reach")
    if r_lo == 0.0:
        return lo
    if r_hi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid == 0.0:
            lo = hi = mid
            break
        if r_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= wrn.XI_REL_TOL * max(abs(lo), abs(hi)):
            break
    xi = 0.5 * (lo + hi)
    achieved = fn(xi)
    while abs(achieved - goal) > wrn.RESIDUAL_REL_TOL * goal and lo < xi < hi:
        if sign * (achieved - goal) < 0.0:
            lo = xi
        else:
            hi = xi
        xi = 0.5 * (lo + hi)
        achieved = fn(xi)
    if abs(achieved - goal) > wrn.RESIDUAL_REL_TOL * goal:
        raise MonotonicityError("bisection missed the goal")
    return xi


# Monotone test functions: name -> (a, b) -> fn, for a, b > 0.
_MONOTONE = {
    "power": lambda a, b: (lambda x: a * x ** (b - 2.0)),
    "log-rising": lambda a, b: (lambda x: a * math.log1p(b * x)),
    "log-falling": lambda a, b: (lambda x: a * math.log1p(b / x)),
    "steep-falling": lambda a, b: (lambda x: a * math.exp(-b * 100.0 * x)),
    "steep-rising": lambda a, b: (lambda x: a * x**40),
    "constant": lambda a, b: (lambda x: a),
    "step": lambda a, b: (lambda x: a if x >= b else 0.0),
    # Not a number past b: no residual test fails there, so the loops stop.
    "nan-above": lambda a, b: (lambda x: a * x if x < b else math.nan),
}


def _outcome(solve, *args):
    try:
        return float.hex(solve(*args))
    except (DomainError, MonotonicityError, NotAttainableError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(_MONOTONE)),
    a=st.floats(1e-3, 1e3),
    b=st.floats(1e-2, 4.0),
    target=st.floats(1e-6, 1e3),
    scale=st.floats(1.0, 40.0),
    bracket=st.sampled_from([wrn.BRACKET_START, (1e-6, 1.0 - 1e-9), (0.5, 2.0), (1e-3, 10.0)]),
)
@example(kind="constant", a=0.5, b=1.0, target=1.0, scale=1.0, bracket=wrn.BRACKET_START)
@example(kind="constant", a=0.5, b=1.0, target=0.25, scale=1.0, bracket=wrn.BRACKET_START)
@example(kind="step", a=1.0, b=3.0, target=0.5, scale=1.0, bracket=wrn.BRACKET_START)
@example(kind="power", a=1.0, b=3.0, target=2.0, scale=1.0, bracket=(1e-3, 10.0))
@example(kind="power", a=1.0, b=3.0, target=1.25, scale=1.0, bracket=(0.5, 2.0))  # first midpoint exact
@example(kind="nan-above", a=1.0, b=1.5, target=1.25, scale=1.0, bracket=(0.5, 2.0))
def test_one_loop_solve_matches_the_two_loop_reference(kind, a, b, target, scale, bracket):
    fn = _MONOTONE[kind](a, b)
    assert _outcome(lambda: _solve(fn, target, scale, bracket, _scan(fn, bracket))) == _outcome(
        _reference_solve, fn, target, scale, bracket
    )


def _count_scans(monkeypatch):
    """The brackets scanned: one ``_samples`` call per scan of a pair of bound functions."""
    calls = []
    samples = wrn._samples

    def counting(bracket):
        calls.append(bracket)
        return samples(bracket)

    monkeypatch.setattr(wrn, "_samples", counting)
    return calls


def test_threshold_report_scans_once(monkeypatch):
    calls = _count_scans(monkeypatch)
    threshold_report(man_spec(), 1e-2, "edgeLength")
    assert len(calls) == 1


@pytest.mark.parametrize("variable,extra,scans", [
    ("targetCapacity", {"start": 1e-3, "stop": 1e-1, "scale": "log"}, lambda n: 1),
    ("edgeLength", {"start": 1.0, "stop": 40.0, "target": 1e-2}, lambda n: n),
])
def test_sweeps_scan_once_per_spec(tmp_path, monkeypatch, variable, extra, scans):
    steps = 7
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"variable": variable, "steps": steps, **extra,
                                "wrn": {"cell": "manhattan8", "radius": 2, "edge_length_km": 10.0}}))
    calls = _count_scans(monkeypatch)
    assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == scans(steps)


def _reference_side_scan(fn, bracket):
    """``_scan`` as it was when each bound function had a scan of its own."""
    lo, hi = bracket
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(f"search bracket must satisfy 0 < lo < hi < inf, got [{lo}, {hi}]")
    ratio = (hi / lo) ** (1.0 / (wrn.MONOTONE_SAMPLES - 1))
    xs = [lo * ratio**i for i in range(wrn.MONOTONE_SAMPLES - 1)] + [hi]
    values = [fn(x) for x in xs]
    rises = any(b > a for a, b in zip(values, values[1:]))
    falls = any(b < a for a, b in zip(values, values[1:]))
    if rises and falls:
        raise MonotonicityError("bound function is not monotone on the search bracket")
    return (DIRECTION_MIN if rises else DIRECTION_MAX if falls else None), values[0]


def _reference_side_solve(fn, target, scale, bracket, scan):
    """``_solve`` as it was when it evaluated fn at the bracket ends again."""
    if not target > 0.0:
        raise DomainError(f"capacity target must be > 0, got {target}")
    if not scale > 0.0:
        raise DomainError(f"scale must be > 0, got {scale}")
    goal = target / float(scale)
    direction, first = scan
    if direction is None:
        if first < goal:
            raise NotAttainableError(
                f"bound function is constant at {first:g} on the search bracket, "
                f"below the per-edge target {goal:g}"
            )
        raise MonotonicityError("bound function is constant on the search bracket")
    sign = -1.0 if direction == DIRECTION_MAX else 1.0

    def residual(x):
        return sign * (fn(x) - goal)

    lo, hi = bracket
    r_lo, r_hi = residual(lo), residual(hi)
    try:
        expansions = 0
        while r_lo > 0.0 and expansions < wrn.MAX_EXPANSIONS:
            lo /= 2.0
            r_lo = residual(lo)
            expansions += 1
        expansions = 0
        while r_hi < 0.0 and expansions < wrn.MAX_EXPANSIONS:
            hi *= 2.0
            r_hi = residual(hi)
            expansions += 1
    except DomainError as exc:
        raise NotAttainableError(f"per-edge target {goal:g} is out of reach: {exc}") from exc
    if r_lo > 0.0 or r_hi < 0.0:
        raise NotAttainableError(f"no parameter value in ({lo:g}, {hi:g}) reaches the per-edge target {goal:g}")
    if r_lo == 0.0:
        return lo
    if r_hi == 0.0:
        return hi
    steps, narrow = 0, False
    while True:
        xi = 0.5 * (lo + hi)
        achieved = fn(xi)
        r = sign * (achieved - goal)
        missed = abs(achieved - goal) > wrn.RESIDUAL_REL_TOL * goal
        if r == 0.0 or narrow and not (missed and lo < xi < hi):
            break
        if r < 0.0:
            lo = xi
        else:
            hi = xi
        steps += 1
        narrow = narrow or steps == 200 or hi - lo <= wrn.XI_REL_TOL * max(abs(lo), abs(hi))
    if missed:
        raise MonotonicityError(
            f"bisection landed at bound value {achieved:g}, target {goal:g}; "
            "the function may step discontinuously"
        )
    return xi


def _reference_thresholds(reference_compound, spec, cases, param, qkd_setup=None):
    """``thresholds`` as it was when it scanned the lower and the upper bound
    function separately, each sample reducing the chain ``wrn._chain_at``
    builds once per side with ``compound`` as it was then (the
    ``reference_compound`` fixture), and bounding one side of one compound,
    where a thermal compound of unit transmissivity is refused."""
    chain, bracket = wrn._chain_at(spec, param, qkd_setup)

    def side(k):
        def fn(x):
            reduced = reference_compound(spec.family, *chain(x))
            if spec.family == "tl" and reduced[0] == 1.0:
                raise DomainError("transmissivity 1 is divergent; treat as infinite capacity explicitly")
            return bound_columns(spec.family, [reduced])[k][0]
        return fn

    lower_fn, upper_fn = side(0), side(2)
    d, (num, den) = connectivity(spec)
    scales = dict(zip(wrn.SCALE_NAMES, (float(d), num / den)))
    sides = [(fn, _reference_side_scan(fn, bracket)) for fn in (lower_fn, upper_fn)]
    results = []
    for target, scale_name in cases:
        if scale_name not in scales:
            raise DomainError(f"scale must be one of {wrn.SCALE_NAMES}, got {scale_name!r}")
        scale = scales[scale_name]
        solved, unattainable = [], None
        for fn, scan in sides:
            try:
                solved.append((_reference_side_solve(fn, target, scale, bracket, scan), scan[0]))
            except NotAttainableError as exc:
                solved.append((math.nan, None))
                unattainable = unattainable or str(exc)
        (xi_lo, direction), (xi_up, direction_up) = solved
        if None not in (direction, direction_up) and direction != direction_up:
            raise MonotonicityError("lower and upper bound functions disagree in direction")
        results.append(ThresholdResult(
            param=param, scale_name=scale_name, scale=scale, target=target,
            direction=direction or direction_up, from_lower_fn=xi_lo, from_upper_fn=xi_up,
            unattainable=unattainable,
        ))
    return results


def _threshold_bits(solve, *args):
    """Every field of every result with floats as hex, or the type and message raised."""
    try:
        results = solve(*args)
    except (DomainError, FamilyError, MonotonicityError, NotAttainableError) as exc:
        return type(exc), str(exc)
    return [tuple(x.hex() if isinstance(x, float) else x for x in result) for result in results]


_THRESHOLD_CASES = [(t, name) for t in (1e-4, 1e-2, 0.3, 1e9) for name in ("delta", "omega")]


@pytest.mark.parametrize("spec,param,qkd", [
    pytest.param(man_spec(edge_length_km=10.0), "edgeLength", None, id="tl-edgeLength"),
    pytest.param(man_spec(recv=ThermalLoss(0.8, 0.001), send=ThermalLoss(0.9, 0.002)), "edgeLength", None,
                 id="tl-templates-edgeLength"),
    pytest.param(man_spec(edge_length_km=20.0), "receiverNoise", None, id="tl-receiverNoise"),
    pytest.param(man_spec(), "edgeLength", from_preset("table1-heterodyne-llo"), id="tl-qkd-edgeLength"),
    pytest.param(man_spec(gamma=0.5), "edgeLength", None, id="tl-lossy-fibre-edgeLength"),
    pytest.param(tri_spec(edge_length_km=10.0), "edgeLength", None, id="ad-edgeLength"),
    pytest.param(tri_spec(recv=AmplitudeDamping(0.05)), "edgeLength", None, id="ad-templates-edgeLength"),
    pytest.param(tri_spec(edge_length_km=50.0), "internalLoss", None, id="ad-internalLoss"),
])
def test_thresholds_match_the_two_scan_reference(reference_compound, spec, param, qkd):
    assert _threshold_bits(thresholds, spec, _THRESHOLD_CASES, param, qkd) == \
        _threshold_bits(_reference_thresholds, reference_compound, spec, _THRESHOLD_CASES, param, qkd)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["ad", "tl"]),
    length=st.floats(1e-3, 500.0),
    gamma=st.floats(1e-3, 1.0),
    nbar_b=st.sampled_from([0.0]) | st.floats(0.0, 0.05),
    device=st.floats(0.5, 1.0),
    device_noise=st.sampled_from([0.0]) | st.floats(0.0, 0.01),
    target=st.floats(1e-5, 10.0),
)
def test_thresholds_match_the_two_scan_reference_on_drawn_specs(
        reference_compound, family, length, gamma, nbar_b, device, device_noise, target):
    template = AmplitudeDamping(1.0 - device) if family == "ad" else ThermalLoss(device, device_noise)
    spec = WrnSpec(CELL_TRIANGULAR if family == "ad" else CELL_MANHATTAN, 2, length, family,
                   recv=template, gamma=gamma, nbar_B=nbar_b)
    params = ["edgeLength", "internalLoss" if family == "ad" else "receiverNoise"]
    cases = [(target, "delta"), (target, "omega")]
    for param in params:
        assert _threshold_bits(thresholds, spec, cases, param) == \
            _threshold_bits(_reference_thresholds, reference_compound, spec, cases, param)


# The solver-sweep benchmark's thermal edge-length sweep.
_EDGE_LENGTH_TL_SWEEP = {
    "variable": "edgeLength", "start": 1.0, "stop": 100.0, "steps": 40, "target": 1e-2,
    "wrn": {"cell": "manhattan8", "radius": 2, "edge_length_km": 10.0,
            "recv": {"kind": "tl", "tau": 0.8, "nbar": 0.0}},
}


def _sweep_compounds(tmp_path, monkeypatch, spec):
    """Chains built, each reduced to one compound, by a ``sweep`` CLI call on ``spec``."""
    counted = []
    chain_at = wrn._chain_at

    def counting(*args):
        chain, bracket = chain_at(*args)
        return (lambda x: counted.append(x) or chain(x)), bracket

    monkeypatch.setattr(wrn, "_chain_at", counting)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    return len(counted)


def test_one_scan_cuts_the_compound_count_of_a_sweep(tmp_path, monkeypatch, reference_compound):
    # A scan sample reduces its compound once for both sides, and each side's
    # solve starts from the scan's end values, where each side had a scan of
    # its own and evaluated the bracket ends again.
    assert _sweep_compounds(tmp_path, monkeypatch, _EDGE_LENGTH_TL_SWEEP) == 6082
    monkeypatch.setattr(wrn, "thresholds", functools.partial(_reference_thresholds, reference_compound))
    assert _sweep_compounds(tmp_path, monkeypatch, _EDGE_LENGTH_TL_SWEEP) == 8794


@pytest.mark.parametrize("spec,param", [(man_spec(), "edgeLength"), (tri_spec(), "internalLoss")],
                         ids=["tl", "ad"])
def test_a_scan_is_one_call_of_each_kernel(monkeypatch, spec, param):
    # The 64 scan samples are reduced in one compounds call and bounded in one
    # bound_columns call; each bisection or expansion step is a batch of one.
    calls = {"compounds": [], "bound_columns": []}
    for name, sizes in calls.items():
        kernel = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda fam, batch, kernel=kernel, sizes=sizes:
                            sizes.append(len(batch)) or kernel(fam, batch))
    thresholds(spec, [(1e-2, "delta"), (1e-2, "omega")], param)
    scans, steps = calls["compounds"][0], calls["compounds"][1:]
    assert scans == wrn.MONOTONE_SAMPLES and steps and set(steps) == {1}
    if spec.family == "tl":
        assert calls["bound_columns"] == [wrn.MONOTONE_SAMPLES] + steps
    else:  # a damping step bounds its own side through that side's loop
        assert calls["bound_columns"] == [wrn.MONOTONE_SAMPLES]


def test_thresholds_solve_many_goals_as_one_goal_each():
    spec = man_spec()
    cases = [(t, name) for t in (1e-3, 1e-2, 1e9) for name in ("delta", "omega")]
    assert thresholds(spec, cases, "edgeLength") == [thresholds(spec, [c], "edgeLength")[0] for c in cases]


def test_threshold_report_brackets_and_residual():
    spec = man_spec()
    bulk, user = threshold_report(spec, 1e-2, "edgeLength")
    assert bulk.param == "edgeLength"
    assert bulk.scale_name == "delta" and user.scale_name == "omega"
    assert bulk.direction == DIRECTION_MAX
    lo, hi = bulk.bracket
    assert lo <= hi
    lower_fn, upper_fn, _, _ = bound_functions(spec, "edgeLength")
    assert lower_fn(bulk.from_lower_fn) * 32.0 == pytest.approx(1e-2, rel=1e-6)
    assert upper_fn(bulk.from_upper_fn) * 32.0 == pytest.approx(1e-2, rel=1e-6)
    # user edges carry less per-edge burden than bulk edges (omega < delta),
    # so their tolerable length is shorter
    assert user.bracket[0] < bulk.bracket[0]


@pytest.mark.parametrize("spec", [man_spec(radius=3), tri_spec(radius=3)], ids=["manhattan8", "triangular6"])
def test_threshold_round_trips_through_the_lattice(spec):
    # A lattice at a solved edge length floods k * target / scale on that side.
    target = 1e-2
    for result in threshold_report(spec, target, "edgeLength"):
        want = spec.k * target / result.scale
        for length, side in ((result.from_lower_fn, "lower"), (result.from_upper_fn, "upper")):
            at = spec._replace(edge_length_km=length)
            report = capacity_report(apply_split(generate(at)))
            assert getattr(report, f"flooding_{side}") == pytest.approx(want, rel=1e-6)


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


def test_threshold_result_is_a_plain_record():
    first, again = (thresholds(man_spec(), [(1e9, "delta")], "edgeLength")[0] for _ in range(2))
    assert first == again and not first != again and hash(first) == hash(again)
    assert isinstance(first.unattainable, str) and first.unattainable
    assert f"unattainable={first.unattainable!r}" in repr(first)
    assert first != first._replace(target=1e8)


@pytest.mark.parametrize("radius", [math.nan, 2.5, 3.0, -math.inf, "3", None])
def test_spec_refuses_a_radius_that_is_not_an_integer(radius):
    with pytest.raises(DomainError) as raised:
        WrnSpec("manhattan8", radius, 10.0, "tl")
    assert str(raised.value) == f"radius must be an integer, got {radius!r}"
    with pytest.raises(DomainError, match="radius must be an integer"):
        tri_spec()._replace(radius=radius)


def test_spec_copy_with_a_change_runs_the_checks():
    spec = tri_spec()
    assert spec._replace(edge_length_km=20.0) == tri_spec(edge_length_km=20.0)
    with pytest.raises(DomainError, match="radius must be >= 2"):
        spec._replace(radius=1)
    with pytest.raises(FamilyError):
        spec._replace(recv=ThermalLoss(0.9))


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
    lower_fn, *_ = bound_functions(spec, "internalLoss")
    assert lower_fn(bulk.from_lower_fn) * 18.0 == pytest.approx(1e-3, rel=1e-6)


def test_internal_loss_solve_meets_residual_where_steep():
    # At a small target the width stop alone leaves the residual above 1e-6.
    spec = tri_spec(edge_length_km=10.0)
    scale = float(delta(spec.k, spec.commonalities))
    goal = 1e-3 / scale
    for fn in bound_functions(spec, "internalLoss")[:2]:
        xi = _solve(fn, 1e-3, scale, (1e-6, 1.0 - 1e-9), _scan(fn, (1e-6, 1.0 - 1e-9)))
        assert abs(fn(xi) - goal) <= 1e-6 * goal


def test_thresholds_mark_unattainable_sides():
    spec = man_spec()
    [result] = thresholds(spec, [(1e9, "delta")], "edgeLength")
    assert math.isnan(result.from_lower_fn) and math.isnan(result.from_upper_fn)
    assert isinstance(result.unattainable, str) and result.unattainable
    with pytest.raises(NotAttainableError) as raised:
        threshold_report(spec, 1e9, "edgeLength")
    assert str(raised.value) == result.unattainable
    bulk, user = threshold_report(spec, 1e-2, "edgeLength")
    assert thresholds(spec, [(1e-2, "delta")], "edgeLength") == [bulk]
    assert thresholds(spec, [(1e-2, "omega")], "edgeLength") == [user]
    with pytest.raises(DomainError):
        thresholds(spec, [(1e-2, "kappa")], "edgeLength")


@pytest.mark.parametrize("spec,param,other", [
    (tri_spec(), "edgeLength", "squashed_entanglement"),
    (tri_spec(), "internalLoss", "squashed_entanglement"),
    (man_spec(), "edgeLength", "bound_columns"),
    (man_spec(), "receiverNoise", "bound_columns"),
])
def test_bound_functions_evaluate_one_side(monkeypatch, spec, param, other):
    lower_fn, upper_fn, _, columns = bound_functions(spec, param)
    expected = lower_fn(0.1), upper_fn(0.1)
    reduced = []
    monkeypatch.setattr(bounds, "compounds", lambda fam, chains: reduced.extend(chains) or compounds(fam, chains))
    # A batch of values is reduced in one call and gives both sides of each.
    lower, _, upper, _ = columns([0.1, 0.1])
    assert (lower, upper) == ([expected[0]] * 2, [expected[1]] * 2) and len(reduced) == 2
    if other == "bound_columns":
        # Both thermal sides come from one rate expression, so each call
        # hands the bound kernel its one compound once.
        handed = []
        monkeypatch.setattr(bounds, "bound_columns",
                            lambda fam, reduced: handed.extend(reduced) or bound_columns(fam, reduced))
        assert lower_fn(0.1) == expected[0] and len(handed) == 1
        assert upper_fn(0.1) == expected[1] and len(handed) == 2
        return

    def forbidden(*args):
        raise AssertionError("the other side was evaluated")

    # The solver looks each damping side's loop up in ``bounds`` when it calls
    # it; patching it there reaches it, which the forbidden side's own function shows.
    monkeypatch.setattr(bounds, other, forbidden)
    assert lower_fn(0.1) == expected[0]
    with pytest.raises(AssertionError, match="other side"):
        upper_fn(0.1)
    monkeypatch.setattr(bounds, other, squashed_entanglement)
    monkeypatch.setattr(bounds, "coherent_information", forbidden)
    assert upper_fn(0.1) == expected[1]
    with pytest.raises(AssertionError, match="other side"):
        lower_fn(0.1)


# Device links may be ideal; the fibre never is, so no compound is an ideal edge.
@given(
    family=st.sampled_from(["ad", "tl"]),
    length=st.sampled_from([1e5, 1e-3]) | st.floats(1e-3, 2000.0),  # 1e5 km transmits nothing
    gamma=st.floats(1e-3, 1.0),
    nbar_b=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
    devices=st.tuples(st.sampled_from([1.0, 1e-200]) | st.floats(1e-6, 1.0),
                      st.sampled_from([0.0]) | st.floats(0.0, 3.0)),
)
@example(family="tl", length=10.0, gamma=0.02, nbar_b=0.0, devices=(0.9, 0.0))  # pure loss
@example(family="tl", length=50.0, gamma=0.02, nbar_b=0.5, devices=(1.0, 0.0))  # entanglement breaking
@example(family="tl", length=10.0, gamma=0.02, nbar_b=0.01, devices=(1e-200, 0.0))  # the product underflows
@example(family="ad", length=1e5, gamma=0.02, nbar_b=0.0, devices=(1.0, 0.0))  # fully damped
@settings(max_examples=300, deadline=None)
def test_bound_functions_are_both_sides_of_direction_bounds(family, length, gamma, nbar_b, devices):
    # The solver and the graph bound one directed edge use through the same
    # two kernels, to the bit, whether one value is bounded or a batch.
    tau, nbar = devices
    template = AmplitudeDamping(1.0 - tau) if family == "ad" else ThermalLoss(tau, nbar)
    spec = WrnSpec(CELL_TRIANGULAR if family == "ad" else CELL_MANHATTAN, 2, 10.0, family,
                   recv=template, send=template, gamma=gamma, nbar_B=nbar_b)
    lower_fn, upper_fn, _, columns = bound_functions(spec, "edgeLength")
    eta, device = fibre_transmissivity(gamma, length), native(family, template)
    direction = (device, eta if family == "ad" else (eta, nbar_b), device)
    expected = bound_columns(family, compounds(family, [direction]))
    got = [lower_fn(length), upper_fn(length)]
    assert [x.hex() for x in got] == [expected[0][0].hex(), expected[2][0].hex()]
    assert columns([length]) == expected


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
    assert len(bg.a) == edge_count(spec)
    assert 0.0 < bg.lower[0] <= bg.upper[0]
