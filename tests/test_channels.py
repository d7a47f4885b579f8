import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetcap.bounds import compounds
from qnetcap.channels import (
    FAMILY_AD,
    FAMILY_TL,
    FIBRE,
    IDENTITY,
    AmplitudeDamping,
    FibreParams,
    NodeSpec,
    ThermalLoss,
    check_row,
    fibre_transmissivity,
    native,
    row_from_json,
    row_to_json,
    rows_of,
    written_numbers,
)
from qnetcap.errors import DomainError, FamilyError
from qnetcap.wrn import WrnSpec

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
taus = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
nbars = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def _compound(fam, send, edge, recv):
    """The one compound ``compounds`` reduces a one-chain batch to."""
    return compounds(fam, [(send, edge, recv)])[0]


def test_channel_param_domains():
    with pytest.raises(DomainError):
        AmplitudeDamping(1.5)
    with pytest.raises(DomainError):
        AmplitudeDamping(float("nan"))
    with pytest.raises(DomainError):
        ThermalLoss(0.0, 0.1)
    with pytest.raises(DomainError):
        ThermalLoss(0.5, -0.1)
    with pytest.raises(DomainError):
        ThermalLoss(1.5)
    with pytest.raises(DomainError):
        FibreParams(-1.0)


@pytest.mark.parametrize("record, change, message", [
    (NodeSpec("a"), {"role": "hub"}, "node role"),
])
def test_copy_with_a_change_runs_the_constructor_checks(record, change, message):
    assert record._replace() == record
    with pytest.raises(DomainError, match=message):
        record._replace(**change)


def test_a_constructor_gives_its_row_and_identity_is_true():
    assert AmplitudeDamping(0.5) == ("ad", 0.5, 0.5, 0.0, 0.0)
    assert ThermalLoss(0.5) == ("tl", 0.5, 0.0, 0.0, 0.0)
    assert FibreParams(10.0) == ("fibre", 10.0 ** -0.2, 0.002, 10.0, 0.02)
    assert IDENTITY and IDENTITY == (None, 1.0, 0.0, 0.0, 0.0)
    assert NodeSpec("a") == ("a", IDENTITY, IDENTITY, "repeater")


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 0.0])
def test_fibre_loss_rate_must_be_finite_and_positive(gamma):
    # An infinite rate would give a zero-length fibre transmissivity 10^(-inf*0) = nan.
    with pytest.raises(DomainError, match="loss rate must be finite"):
        FibreParams(0.0, gamma=gamma)


IDEAL_TL = (1.0, 0.0)


def test_compose_ad_examples():
    # Survival probabilities eta = 1 - p of the damping chains p = [0.2],
    # [0.1, 0.2], [0.5, 1.0] and [0, 0, 0], ideal devices filling the rest.
    assert _compound(FAMILY_AD, 1.0, 0.8, 1.0) == pytest.approx(0.8, rel=1e-15)
    assert _compound(FAMILY_AD, 0.9, 0.8, 1.0) == pytest.approx(0.72, rel=1e-15)
    assert _compound(FAMILY_AD, 0.5, 0.0, 1.0) == 0.0
    assert _compound(FAMILY_AD, 1.0, 1.0, 1.0) == 1.0


def test_compose_ad_domain():
    with pytest.raises(DomainError):
        _compound(FAMILY_AD, 0.5, 1.2, 1.0)
    with pytest.raises(DomainError):
        _compound(FAMILY_AD, -0.1, 1.0, 1.0)


@given(st.lists(probs, min_size=3, max_size=3))
@settings(max_examples=300)
def test_compose_ad_range_and_order(etas):
    eta = _compound(FAMILY_AD, *etas)
    assert 0.0 <= eta <= 1.0
    assert _compound(FAMILY_AD, *reversed(etas)) == pytest.approx(eta, abs=1e-15)
    assert eta <= min(etas) + 1e-15


@given(probs, probs, probs)
@settings(max_examples=200)
def test_compose_ad_monotone(send, edge, extra):
    # A lossy receiver in place of an ideal one loses survival probability.
    assert _compound(FAMILY_AD, send, edge, extra) <= _compound(FAMILY_AD, send, edge, 1.0) + 1e-15


def test_compose_tl_examples():
    assert _compound(FAMILY_TL, IDEAL_TL, (0.5, 0.1), IDEAL_TL) == (0.5, pytest.approx(0.1, abs=1e-15))
    assert _compound(FAMILY_TL, (0.5, 0.0), (0.4, 0.0), IDEAL_TL) == (pytest.approx(0.2), 0.0)
    tau, nbar = _compound(FAMILY_TL, (0.8, 0.1), (0.5, 0.2), IDEAL_TL)
    assert tau == pytest.approx(0.4, rel=1e-15)
    assert nbar == pytest.approx(0.2 + 0.5 * 0.1, rel=1e-12)


def test_compose_tl_domain():
    # The send link goes out of domain: an edge of transmissivity 0 is a dark edge.
    with pytest.raises(DomainError):
        _compound(FAMILY_TL, (0.0, 0.1), (0.5, 0.0), IDEAL_TL)
    with pytest.raises(DomainError):
        _compound(FAMILY_TL, (1.1, 0.0), (0.5, 0.0), IDEAL_TL)
    with pytest.raises(DomainError):
        _compound(FAMILY_TL, (0.5, -0.2), (0.5, 0.0), IDEAL_TL)


@given(st.lists(st.tuples(taus, nbars), min_size=3, max_size=3))
@settings(max_examples=300)
def test_compose_tl_invariants(links):
    tau_tot, nbar_tot = _compound(FAMILY_TL, *links)
    assert 0.0 < tau_tot <= 1.0
    assert nbar_tot >= 0.0
    prod = 1.0
    for tau, _ in links:
        prod *= tau
    assert tau_tot == pytest.approx(prod, rel=1e-12)
    # closed form: nbar_tot = sum_j nbar_j * prod_{i>j} tau_i
    expanded = 0.0
    for j, (_, nbar) in enumerate(links):
        scale = 1.0
        for tau, _ in links[j + 1:]:
            scale *= tau
        expanded += nbar * scale
    assert nbar_tot == pytest.approx(expanded, abs=1e-12)


@given(st.tuples(taus, nbars), st.tuples(taus, nbars), st.tuples(taus, nbars))
@settings(max_examples=200)
def test_compose_tl_associative(send, edge, recv):
    # Merging the send device into the fibre first gives the same compound.
    whole = _compound(FAMILY_TL, send, edge, recv)
    split = _compound(FAMILY_TL, IDEAL_TL, _compound(FAMILY_TL, send, edge, IDEAL_TL), recv)
    assert split[0] == pytest.approx(whole[0], rel=1e-12)
    assert split[1] == pytest.approx(whole[1], abs=1e-12)


@given(st.lists(taus, min_size=3, max_size=3))
@settings(max_examples=200)
def test_compose_tl_pure_loss_closure(ts):
    tau_tot, nbar_tot = _compound(FAMILY_TL, *[(t, 0.0) for t in ts])
    assert nbar_tot == 0.0
    prod = 1.0
    for t in ts:
        prod *= t
    assert tau_tot == prod


def test_node_split_ad_examples():
    # In survival probabilities: ideal devices are eta = 1, p = 0.1 is eta = 0.9.
    assert _compound("ad", 1.0, 0.8, 1.0) == pytest.approx(0.8, rel=1e-15)
    assert _compound("ad", 0.9, 1.0, 0.9) == pytest.approx(0.81, rel=1e-12)
    # total internal efficiency 0.1 with a d=100 km fibre at gamma=0.02
    eta_xy = 10.0 ** (-0.02 * 100.0)
    assert _compound("ad", 1.0, eta_xy, 0.1) == pytest.approx(0.001, rel=1e-12)


def test_node_split_tl_examples():
    ideal = (1.0, 0.0)
    assert _compound("tl", ideal, (0.5, 0.0), ideal) == (0.5, 0.0)
    eta, nbar = _compound("tl", ideal, (0.8, 0.002), (0.8, 0.0))
    assert eta == pytest.approx(0.64, rel=1e-12)
    assert nbar == pytest.approx(0.0016, rel=1e-12)
    eta, nbar = _compound("tl", (0.95, 0.005), (0.5, 0.002), (0.9, 0.01))
    assert eta == pytest.approx(0.4275, rel=1e-12)
    assert nbar == pytest.approx(0.01 + 0.9 * 0.002 + 0.5 * 0.9 * 0.005, rel=1e-12)


@given(taus, nbars, taus, nbars, taus, nbars)
@settings(max_examples=1000)
def test_node_split_tl_is_compose_tl(reference_compound, tau_s, n_s, eta, n_xy, tau_r, n_r):
    split = _compound("tl", (tau_s, n_s), (eta, n_xy), (tau_r, n_r))
    assert split == reference_compound("tl", (tau_s, n_s), (eta, n_xy), (tau_r, n_r))
    eta_tot, nbar_tot = split
    assert eta_tot == pytest.approx(tau_r * tau_s * eta, rel=1e-12)
    assert nbar_tot == pytest.approx(n_r + tau_r * n_xy + eta * tau_r * n_s, abs=1e-12)


@given(probs, probs, probs)
@settings(max_examples=300)
def test_node_split_ad_matches_compose(reference_compound, eta_s, eta_xy, eta_r):
    assert _compound("ad", eta_s, eta_xy, eta_r) == reference_compound("ad", eta_s, eta_xy, eta_r)


# (family, row, its documented family-native numbers): "ad" eta = 1 - p, "tl" (tau, nbar),
# IDENTITY 1.0 or (1.0, 0.0), a fibre 10^(-gamma*d) with its nbar_B in "tl".
NATIVE_CASES = [
    pytest.param(FAMILY_AD, AmplitudeDamping(0.3), 1.0 - 0.3, id="ad-damping"),
    pytest.param(FAMILY_AD, AmplitudeDamping(1.0), 0.0, id="ad-full-damping"),
    pytest.param(FAMILY_AD, IDENTITY, 1.0, id="ad-identity"),
    pytest.param(FAMILY_AD, FibreParams(50.0), 10.0 ** (-0.02 * 50.0), id="ad-fibre"),
    pytest.param(FAMILY_AD, FibreParams(3.7, gamma=0.03), 10.0 ** (-0.03 * 3.7), id="ad-fibre-gamma"),
    pytest.param(FAMILY_AD, FibreParams(0.0), 1.0, id="ad-fibre-zero-length"),
    pytest.param(FAMILY_AD, FibreParams(20000.0), 0.0, id="ad-fibre-underflow"),  # 10^-400 underflows to 0.0
    pytest.param(FAMILY_TL, ThermalLoss(0.7, 0.02), (0.7, 0.02), id="tl-thermal"),
    pytest.param(FAMILY_TL, ThermalLoss(0.4), (0.4, 0.0), id="tl-pure-loss"),
    pytest.param(FAMILY_TL, IDENTITY, (1.0, 0.0), id="tl-identity"),
    pytest.param(FAMILY_TL, FibreParams(100.0), (10.0 ** (-0.02 * 100.0), 0.002), id="tl-fibre"),
    pytest.param(FAMILY_TL, FibreParams(100.0, nbar_B=0.0), (10.0 ** (-0.02 * 100.0), 0.0), id="tl-fibre-noiseless"),
    pytest.param(FAMILY_TL, FibreParams(0.0, nbar_B=0.0), (1.0, 0.0), id="tl-fibre-zero-length"),
    pytest.param(FAMILY_TL, FibreParams(20000.0, nbar_B=0.5), (0.0, 0.5), id="tl-fibre-underflow"),
]


def _bits(numbers):
    return [x.hex() for x in numbers] if isinstance(numbers, tuple) else numbers.hex()


@pytest.mark.parametrize("fam, row, numbers", NATIVE_CASES)
def test_native_gives_the_documented_numbers_and_refuses_other_families(fam, row, numbers):
    assert _bits(native(fam, row)) == _bits(numbers)
    if row[0] == FIBRE:  # the one fibre loss law, in either family
        assert native(FAMILY_AD, row) == fibre_transmissivity(row[4], row[3])
    if row[0] in (FAMILY_AD, FAMILY_TL):
        other, expected = (FAMILY_TL, "a thermal-loss") if fam == FAMILY_AD else (FAMILY_AD, "an amplitude-damping")
        with pytest.raises(FamilyError) as wrong:
            native(other, row)
        assert str(wrong.value) == f"expected {expected} channel, got {row_to_json(*row)}"
    with pytest.raises(FamilyError) as unknown:
        native("qubit", row)
    assert str(unknown.value) == "unknown channel family 'qubit'"


@pytest.mark.parametrize("fam, row, numbers", NATIVE_CASES)
def test_a_table_row_holds_the_native_numbers_and_gives_the_row_back(fam, row, numbers):
    _, eta, last, _, _ = row
    assert _bits(eta if fam == FAMILY_AD else (eta, last)) == _bits(numbers)
    data = row_to_json(*row)
    if row[0] == FIBRE:  # a fibre's object is its FibreParams arguments
        assert FibreParams(**data) == row
    else:  # a channel object reads into the same row
        assert row_from_json(data) == row


def test_fibre_transmissivity_is_the_one_loss_law():
    assert fibre_transmissivity(0.02, 100.0) == 10.0 ** -2.0
    assert fibre_transmissivity(0.02, 0.0) == 1.0
    assert not hasattr(FibreParams(1.0), "damping")
    assert not hasattr(FibreParams(1.0), "transmissivity")


# (row, the text of its object): every kind, with the ints and negative zeros
# that equal other numbers but print apart.
ROW_JSON_CASES = [
    (AmplitudeDamping(0.3), '{"kind": "ad", "p": 0.3}'),
    (AmplitudeDamping(-0.0), '{"kind": "ad", "p": -0.0}'),
    (AmplitudeDamping(1), '{"kind": "ad", "p": 1}'),
    (ThermalLoss(0.7, 0.02), '{"kind": "tl", "tau": 0.7, "nbar": 0.02}'),
    (ThermalLoss(0.4), '{"kind": "tl", "tau": 0.4, "nbar": 0.0}'),
    (ThermalLoss(1, -0.0), '{"kind": "tl", "tau": 1, "nbar": -0.0}'),
    (IDENTITY, '{"kind": "id"}'),
    (FibreParams(2, 0.02, -0.0), '{"length_km": 2, "gamma": 0.02, "nbar_B": -0.0}'),
    (FibreParams(-0.0, 1, 0), '{"length_km": -0.0, "gamma": 1, "nbar_B": 0}'),
]


def _row_bits(row):
    """A row's kind, then each number as a float, bit for bit."""
    return [row[0], *(float(x).hex() for x in row[1:])]


@pytest.mark.parametrize("row, text", ROW_JSON_CASES, ids=[text for _, text in ROW_JSON_CASES])
def test_row_to_json_spells_the_row_and_row_from_json_reads_it_back(row, text):
    assert json.dumps(row_to_json(*row)) == text
    if row[0] == FIBRE:  # a fibre object has no kind; the network reader reads it
        assert _row_bits(row) == _row_bits(FibreParams(*json.loads(text).values()))
        return
    read = row_from_json(json.loads(text))
    assert _row_bits(read) == _row_bits(row)
    assert _row_bits(row_from_json(row_to_json(*read))) == _row_bits(read)


def test_channel_json_round_trip():
    # "pl" (pure loss) still reads, as thermal loss with no added photons, and writes as "tl".
    for data in ({"kind": "pl", "eta": 0.4}, {"kind": "pl", "eta": 1}):
        row = row_from_json(data)
        assert _row_bits(row) == _row_bits(ThermalLoss(data["eta"], 0.0))
        assert row_to_json(*row) == {"kind": "tl", "tau": float(data["eta"]), "nbar": 0.0}
    with pytest.raises(DomainError):
        row_from_json({"kind": "nope"})
    with pytest.raises(DomainError):
        row_from_json({"p": 0.1})


# (row, None if ``check_row`` passes it unchanged, "refused" for the FamilyError of anything that
# is not a constructor's row, or the DomainError text of the constructor of its out-of-range numbers).
CHECK_ROW_CASES = [
    *((row, None) for row in (AmplitudeDamping(0.3), AmplitudeDamping(1), ThermalLoss(0.7, 0.02), ThermalLoss(1, -0.0),
                              FibreParams(50.0), FibreParams(0.0, 0.03, 0.0), FibreParams(20000.0), IDENTITY)),
    *((other, "refused") for other in (
        0.3, None, (0.5, 0.0), "tl", NodeSpec("x"), ["tl", 0.5, 0.0, 0.0, 0.0], ("tl", 0.5, 0.0, 0.0),
        ("xyz", 1.0, 0.0, 0.0, 0.0), ("ad", 0.5, 0.3, 0.0, 0.0), ("tl", 0.5, 0.0, 3.0, 0.0),
        ("fibre", 0.5, 0.002, 10.0, 0.02), (None, 0.5, 0.0, 0.0, 0.0), ("tl", "0.5", 0.0, 0.0, 0.0))),
    (("fibre", 1.0, 0.002, -3.0, 0.02), "fibre length must be >= 0 km, got -3.0"),
    (("ad", -0.5, 1.5, 0.0, 0.0), "damping probability must lie in [0, 1], got 1.5"),
    (("tl", 1.5, 0.0, 0.0, 0.0), "transmissivity must lie in (0, 1], got 1.5"),
]


@pytest.mark.parametrize("other, refusal", CHECK_ROW_CASES, ids=repr)
def test_row_of_refuses_what_is_not_a_channel_spec_or_fibre(other, refusal):
    if refusal is None:  # a constructor's row passes unchanged
        assert check_row(other) is other
        return
    error, message = (FamilyError, f"not a channel spec or fibre: {other!r}") if refusal == "refused" else (
        DomainError, refusal)
    for convert in (check_row, lambda row: native(FAMILY_AD, row), lambda row: native(FAMILY_TL, row),
                    lambda row: WrnSpec("manhattan8", 2, 10.0, "tl", recv=row)):
        with pytest.raises(error) as refused:
            convert(other)
        assert str(refused.value) == message


@settings(max_examples=50, derandomize=True)
@given(st.lists(st.tuples(taus, nbars, probs, st.floats(min_value=0.0, max_value=300.0),
                          st.floats(min_value=1e-4, max_value=1.0)), min_size=1, max_size=6))
def test_rows_of_builds_the_rows_of_written_numbers_as_the_constructors_do(numbers):
    rows = {FAMILY_TL: [ThermalLoss(tau, nbar) for tau, nbar, *_ in numbers],
            FAMILY_AD: [AmplitudeDamping(p) for _, _, p, _, _ in numbers],
            FIBRE: [FibreParams(length, gamma, nbar) for _, nbar, _, length, gamma in numbers]}
    for kind, expected in rows.items():
        written = [written_numbers(row_to_json(*row), kind == FIBRE) for row in expected]
        assert rows_of(kind, [list(column) for column in zip(*written)]) == expected


@pytest.mark.parametrize("data,fibre", [
    ({"kind": "tl", "tau": {"v": 0.9}, "nbar": 0.0}, False), ({"kind": "tl", "nbar": 0.0, "tau": 0.9}, False),
    ({"kind": "tl", "tau": 1, "nbar": 0.0}, False), ({"kind": "tl", "tau": 0.9}, False),
    ({"kind": "pl", "eta": 0.9}, False), ({"kind": "id"}, False), ({"kind": ["ad"], "p": 0.1}, False),
    ({"length_km": 5.0, "gamma": 0.02, "nbar_B": 0.0}, False), ({"kind": "ad", "p": 0.1}, True),
    ({"length_km": {"v": 5.0}, "gamma": 0.02, "nbar_B": 0.0}, True), ({"length_km": 5.0}, True),
    (["length_km", "gamma", "nbar_B"], True), ("tl", False),
])
def test_written_numbers_take_only_the_objects_row_to_json_writes(data, fibre):
    assert written_numbers(data, fibre) is None


def test_rows_of_checks_every_number_of_a_column():
    with pytest.raises(DomainError, match="got 1.5"):
        rows_of(FAMILY_TL, [[0.5, 1.5, 0.9], [0.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="got -1.0"):
        rows_of(FIBRE, [[3.0, -1.0], [0.02, 0.02], [0.0, 0.0]])


def test_node_spec_role():
    with pytest.raises(DomainError):
        NodeSpec("x", role="router")
