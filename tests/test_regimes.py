import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deathlab.process import simulate_trajectory
from deathlab.regimes import (
    Constant,
    InitialPower,
    JointPower,
    RegimeError,
    StatePower,
    Table,
    describe,
    from_json,
    mortality,
    mortality_vector,
    parse_inline,
    prepare,
    to_json,
)
from deathlab.rng import make_stream


def test_constant_evaluation():
    assert mortality(Constant(0.3), 5, 10) == 0.3


def test_joint_power_evaluation():
    assert mortality(JointPower(1.0, 4.0), 2, 10) == pytest.approx(2e-4, rel=1e-15)


def test_initial_power_evaluation():
    assert mortality(InitialPower(1.0, 3.0), 7, 10) == pytest.approx(1e-3, rel=1e-15)


def test_state_power_evaluation():
    assert mortality(StatePower(0.5, 2.0), 4, 10) == pytest.approx(0.5 / 16, rel=1e-15)


def test_constant_and_initial_independent_of_current_state():
    for regime in (Constant(0.42), InitialPower(2.0, 1.5)):
        values = {mortality(regime, k, 12) for k in range(1, 13)}
        assert len(values) == 1  # exact equality across k


def test_constant_and_state_independent_of_initial_state():
    for regime in (Constant(0.42), StatePower(0.5, 2.0)):
        values = {mortality(regime, 3, n) for n in range(3, 20)}
        assert len(values) == 1


def test_joint_power_at_top_state():
    regime = JointPower(1.0, 4.0)
    for n in (2, 5, 17):
        assert mortality(regime, n, n) == pytest.approx(float(n) ** (1.0 - 4.0), rel=1e-15)


def test_joint_power_corner_evaluates_to_one():
    # k = n = 1 gives k^a/n^b = 1 for the whole family
    assert mortality(JointPower(1.0, 4.0), 1, 1) == 1.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: Constant(0.0),
        lambda: Constant(1.0),
        lambda: Constant(-0.2),
        lambda: InitialPower(0.0, 1.0),
        lambda: InitialPower(1.0, -1.0),
        lambda: StatePower(-1.0, 2.0),
        lambda: JointPower(2.0, 1.0),  # beta < alpha
        lambda: JointPower(0.0, 1.0),
        lambda: Table({(1, 1): 0.0}),
        lambda: Table({(3, 2): 0.5}),  # k > n
    ],
)
def test_invalid_construction(build):
    with pytest.raises(RegimeError):
        build()


def test_table_allows_certain_death():
    regime = Table({(1, 1): 1.0})
    assert mortality(regime, 1, 1) == 1.0


# the constructor keeps the type rules of from_dict
def test_table_refuses_a_string_probability():
    with pytest.raises(RegimeError, match="must be a number"):
        Table({(1, 1): "0.5"})


def test_table_refuses_a_non_integer_state():
    with pytest.raises(RegimeError, match="integer states"):
        Table({(1.5, 2): 0.5})


def test_table_refuses_a_bool_state():
    with pytest.raises(RegimeError, match="integer states"):
        Table({(True, 1): 0.5})


def test_table_miss_raises():
    with pytest.raises(RegimeError):
        mortality(Table({(1, 1): 0.5}), 1, 2)
    with pytest.raises(RegimeError):
        prepare(Table({(1, 1): 0.5}), 2)
    with pytest.raises(RegimeError, match="k=2, n=3"):
        prepare(Table({(1, 3): 0.5, (3, 3): 0.5}), 3)  # one state missing


def test_out_of_range_states():
    with pytest.raises(RegimeError):
        mortality(Constant(0.5), 0, 5)
    with pytest.raises(RegimeError):
        mortality(Constant(0.5), 6, 5)


def test_power_regime_rejects_value_above_one():
    with pytest.raises(RegimeError):
        mortality(StatePower(2.0, 1.0), 1, 5)  # c_1 = 2
    with pytest.raises(RegimeError):
        prepare(StatePower(2.0, 0.5), 5)
    with pytest.raises(RegimeError):
        prepare(InitialPower(5.0, 1.0), 2)  # c_2 = 2.5


def test_mortality_vector_and_min():
    regime = StatePower(0.5, 1.0)
    vec = mortality_vector(regime, 4)
    assert vec == [0.5, 0.25, 0.5 / 3, 0.125]
    assert prepare(regime, 4).min() == 0.125
    assert prepare(Constant(0.3), 9).min() == 0.3
    assert prepare(JointPower(1.0, 4.0), 4).min() == mortality(JointPower(1.0, 4.0), 1, 4)
    # the default censoring horizon depends on the regime only through that minimum
    horizon = simulate_trajectory(4, regime, make_stream(0, 0), runs=1).t_max
    assert horizon == simulate_trajectory(4, Constant(0.125), make_stream(0, 0), runs=1).t_max
    assert horizon == math.ceil((math.log(1e-9) - math.log(4)) / math.log1p(-0.125))


def test_prepare_encodes_every_regime():
    # entry k is c at state k; entry 0 repeats entry 1; the last entry holds above it
    assert prepare(Constant(0.3), 10).tolist() == [0.3, 0.3]
    c_n = mortality(InitialPower(1.0, 3.0), 1, 10)
    assert prepare(InitialPower(1.0, 3.0), 10).tolist() == [c_n, c_n]
    joint = JointPower(1.0, 4.0)
    assert prepare(joint, 4).tolist() == [mortality(joint, k, 4) for k in (1, 1, 2, 3, 4)]
    table = Table({(1, 2): 0.25, (2, 2): 0.75})
    assert prepare(table, 2).tolist() == [0.25, 0.25, 0.75]
    assert prepare(Constant(0.5), 10**12).size == 2  # O(1) memory for run-constant regimes


@pytest.mark.parametrize(
    "regime",
    [
        Constant(0.3),
        InitialPower(0.8, 0.5),
        StatePower(0.5, 1.0),  # numpy's vectorised power differs from it in the last bit
        StatePower(0.9, 0.37),
        StatePower(1e-3, 2.5),
        JointPower(1.0, 2.0),
        JointPower(0.5, 0.5),
        JointPower(1.3, 2.7),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 17, 3000])
def test_prepare_is_bit_equal_to_mortality(regime, n):
    cs = prepare(regime, n)
    want = [mortality(regime, max(k, 1), n) for k in range(cs.size)]
    assert cs.tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_joint_power_overflow_is_a_domain_error():
    # 40**193 overflows a double; the regime must fail as a domain error
    with pytest.raises(RegimeError):
        mortality(JointPower(1.0, 193.0), 1, 40)


@st.composite
def _start_and_regime_args(draw):
    """A start n and a family with arguments that may or may not construct."""
    n = draw(st.integers(min_value=1, max_value=40))
    family = draw(st.sampled_from([Constant, InitialPower, StatePower, JointPower, Table]))
    if family is Constant:
        return n, Constant, (draw(st.floats(min_value=-0.5, max_value=1.5)),)
    if family is Table:
        probs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
        missing = draw(st.sets(st.integers(min_value=1, max_value=n), max_size=1))
        return n, Table, ({(k, n): p for k, p in enumerate(probs, 1) if k not in missing},)
    scale = draw(st.floats(min_value=1e-6, max_value=20.0))
    return n, family, (scale, draw(st.floats(min_value=1e-3, max_value=500.0)))


@settings(max_examples=300, deadline=None)
@given(args=_start_and_regime_args())
def test_prepare_validates_every_constructible_regime_property(args):
    n, build, params = args
    try:
        regime = build(*params)
    except RegimeError:
        return  # not constructible
    try:
        cs = prepare(regime, n)
    except RegimeError:
        return  # rejected before any draw
    assert cs.dtype == np.float64
    assert np.all((cs > 0.0) & (cs <= 1.0))
    last = cs.size - 1
    for k in range(1, n + 1):
        assert cs[min(k, last)] == mortality(regime, k, n)


@pytest.mark.parametrize(
    "regime",
    [
        Constant(0.3),
        InitialPower(1.0, 3.0),
        StatePower(0.1, 2.5),
        JointPower(1.0, 4.0),
        Table({(1, 2): 0.25, (2, 2): 0.75}),
    ],
)
def test_json_roundtrip_is_bit_exact(regime):
    text = to_json(regime)
    assert from_json(text) == regime
    assert to_json(from_json(text)) == text


def test_json_tagged_union_encoding():
    assert json.loads(to_json(Constant(0.3))) == {"type": "constant", "c": 0.3}


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ('{"type": "nope", "c": 0.3}', "type"),
        ('{"type": "constant"}', "missing"),
        ('{"type": "constant", "c": 0.3, "extra": 1}', "extra"),
        ('{"type": "constant", "c": "high"}', "c"),
        ('{"type": "table", "values": [[1, 2]]}', "triple"),
        ('{"type": "table", "values": [[1, 2, "abc"]]}', "[1, 2, 'abc']"),
        ('{"type": "table", "values": [[1, 2, null]]}', "[1, 2, None]"),
        ('{"type": "table", "values": [[1, 2, [0.5]]]}', "[1, 2, [0.5]]"),
        ('{"type": "table", "values": [[1, 2, "0.5"]]}', "[1, 2, '0.5']"),
        ('{"type": "table", "values": [[true, 2, 0.5]]}', "[True, 2, 0.5]"),
        ('{"type": "table", "values": [[1, 2, 0.5], [1, 2, 0.25]]}', "[1, 2, 0.25] repeats"),
        ('{"type": "initial_power", "a": true, "gamma": 1}', "'a'"),
        ('{"type": ["constant"]}', "type"),
        pytest.param('{"type": "constant", "c": 1' + "0" * 400 + "}", "overflows", id="c_overflows"),
        ("[1, 2]", "object"),
        ("not json", "JSON"),
    ],
)
def test_json_errors_name_the_problem(payload, fragment):
    with pytest.raises(RegimeError) as err:
        from_json(payload)
    assert fragment.lower() in str(err.value).lower()


def test_parse_inline():
    assert parse_inline("constant:0.3") == Constant(0.3)
    assert parse_inline("joint_power:1,4") == JointPower(1.0, 4.0)
    assert parse_inline("initial-power:1,3") == InitialPower(1.0, 3.0)
    with pytest.raises(RegimeError):
        parse_inline("constant:0.3,0.4")
    with pytest.raises(RegimeError):
        parse_inline("mystery:1")


def test_describe_is_short():
    for regime in (Constant(0.3), JointPower(1.0, 4.0), Table({(1, 1): 0.5})):
        assert len(describe(regime)) < 40


@settings(max_examples=60, deadline=None)
@given(c=st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False))
def test_constant_roundtrip_property(c):
    regime = Constant(c)
    assert from_json(to_json(regime)) == regime


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.01, max_value=5, allow_nan=False),
    extra=st.floats(min_value=0.0, max_value=5, allow_nan=False),
    k=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=1, max_value=50),
)
def test_joint_power_in_unit_interval_property(alpha, extra, k, n):
    regime = JointPower(alpha, alpha + extra)
    if k > n:
        k, n = n, k
    value = mortality(regime, k, n)
    assert 0.0 < value <= 1.0
    assert math.isfinite(value)
