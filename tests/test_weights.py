"""Weight sequence families and their JSON configuration."""

import json
from fractions import Fraction

import pytest

from ztt.theta import multiple_harmonic
from ztt.weights import (
    CustomWeights,
    LinearWeights,
    OnesWeights,
    QModifiedWeights,
    WeightConfigError,
    ZetaWeights,
    builtin_weights,
    load_weight_config,
    parse_weight_config,
    power_sum,
    weight_at,
)

F = Fraction


def test_builtin_terms():
    assert weight_at(OnesWeights(), 7) == 1
    assert weight_at(LinearWeights(), 7) == 7
    assert weight_at(ZetaWeights(2), 3) == F(1, 9)
    assert weight_at(QModifiedWeights(LinearWeights(), F(1, 2)), 3) == F(3, 8)


def test_power_sums_match_direct_summation():
    seqs = [OnesWeights(), LinearWeights(), ZetaWeights(1), ZetaWeights(3),
            QModifiedWeights(ZetaWeights(1), F(2, 3))]
    for seq in seqs:
        for n in range(0, 7):
            for j in range(1, 5):
                direct = sum((seq.term(m) ** j for m in range(1, n + 1)),
                             F(0))
                assert power_sum(seq, n, j) == direct
    for n in range(0, 7):
        for j in range(1, 5):
            assert power_sum(OnesWeights(), n, j) == n
            for m in (1, 2, 3):
                assert power_sum(ZetaWeights(m), n, j) == multiple_harmonic(n, (m * j,))


def test_zeta_order_validation():
    with pytest.raises(WeightConfigError):
        ZetaWeights(0)
    with pytest.raises(WeightConfigError):
        ZetaWeights("2")
    # the order shares the exponent bound of rational literals, so a huge
    # order fails at once instead of building m**order for every weight
    assert ZetaWeights(1000).term(2) == F(1, 2**1000)
    for order in (1001, 10**6):
        with pytest.raises(WeightConfigError, match=f"zeta order {order} is outside 1..1000"):
            ZetaWeights(order)
    with pytest.raises(WeightConfigError, match="got 3/2"):
        parse_weight_config('{"kind": "zeta", "m": 1.5}')


def test_zeta_order_refuses_bool():
    # True would compute with order 1 and write {"m": true}, which
    # parse_weight_config refuses, so the config round trip would break
    with pytest.raises(WeightConfigError):
        ZetaWeights(True)


def test_custom_validation():
    with pytest.raises(WeightConfigError):
        CustomWeights(())
    with pytest.raises(WeightConfigError):
        CustomWeights((F(1), F(0)))
    with pytest.raises(WeightConfigError):
        CustomWeights((F(1), F(-2)))
    seq = CustomWeights((F(3), F(1, 2)))
    assert seq.term(2) == F(1, 2)
    assert seq.upper_index() == 2
    with pytest.raises(WeightConfigError):
        seq.term(3)
    # power_sum reaches the same refusal through weight_at
    with pytest.raises(WeightConfigError):
        power_sum(seq, 3, 1)


def test_q_modified_validation():
    with pytest.raises(WeightConfigError):
        QModifiedWeights(OnesWeights(), F(0))
    with pytest.raises(WeightConfigError):
        QModifiedWeights(OnesWeights(), F(-1, 2))


def test_builtin_names():
    assert builtin_weights("ones") == OnesWeights()
    assert builtin_weights("linear") == LinearWeights()
    assert builtin_weights("zeta:3") == ZetaWeights(3)
    with pytest.raises(WeightConfigError):
        builtin_weights("zeta:x")
    with pytest.raises(WeightConfigError):
        builtin_weights("fancy")


def test_parse_config_kinds():
    assert parse_weight_config({"kind": "ones"}) == OnesWeights()
    assert parse_weight_config('{"kind": "zeta", "m": 2}') == ZetaWeights(2)
    got = parse_weight_config(
        '{"kind": "custom", "values": ["1", "1/2", "0.25"]}')
    assert got == CustomWeights((F(1), F(1, 2), F(1, 4)))
    nested = parse_weight_config(
        '{"kind": "q_modified", "q": "1/2", "base": {"kind": "linear"}}')
    assert nested == QModifiedWeights(LinearWeights(), F(1, 2))


def test_json_decimals_are_exact():
    got = parse_weight_config(
        '{"kind": "custom", "values": [0.1, 2.5e-1, 1E3, 3, "0.1"]}')
    assert got == CustomWeights((F(1, 10), F(1, 4), F(1000), F(3), F(1, 10)))
    nested = parse_weight_config(
        '{"kind": "q_modified", "q": 0.1, "base": {"kind": "ones"}}')
    assert nested == QModifiedWeights(OnesWeights(), F(1, 10))


def test_parse_config_rejections():
    bad = [
        "not json at all",
        '{"kind": "nope"}',
        '{"kind": "ones", "extra": 1}',
        '{"kind": "zeta"}',
        '{"kind": "custom", "values": []}',
        '{"kind": "custom", "values": "1,2"}',
        '{"kind": "q_modified", "q": "1/2"}',
        '{"kind": "custom", "values": [true]}',
        '{"kind": "q_modified", "q": true, "base": {"kind": "ones"}}',
        '{"kind": "custom", "values": [Infinity]}',
        '{"kind": "q_modified", "q": -Infinity, "base": {"kind": "ones"}}',
        '{"kind": "custom", "values": [1e1001]}',
        '{"kind": "zeta", "m": 2.0}',
        '{"kind": "zeta", "m": 1.5}',
        '{"kind": "zeta", "m": true}',
        '{"kind": "zeta", "m": 1001}',
        '[1, 2, 3]',
    ]
    for text in bad:
        with pytest.raises(WeightConfigError):
            parse_weight_config(text)


def test_nesting_depth_capped():
    cfg = {"kind": "ones"}
    for _ in range(12):
        cfg = {"kind": "q_modified", "q": "1/2", "base": cfg}
    with pytest.raises(WeightConfigError):
        parse_weight_config(cfg)


def test_deep_json_nesting_refused():
    # the JSON decoder itself recurses once per bracket
    with pytest.raises(WeightConfigError, match="nesting too deep"):
        parse_weight_config("[" * 100_000)


def test_config_round_trip():
    seqs = [OnesWeights(), LinearWeights(), ZetaWeights(4),
            CustomWeights((F(2), F(5, 3))),
            QModifiedWeights(ZetaWeights(2), F(3, 4))]
    for seq in seqs:
        again = parse_weight_config(json.dumps(seq.config()))
        assert again == seq


def test_load_weight_config(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"kind": "custom", "values": ["2", "1/3"]}')
    assert load_weight_config(str(path)) == CustomWeights((F(2), F(1, 3)))
    with pytest.raises(WeightConfigError):
        load_weight_config(str(tmp_path / "missing.json"))
