import pytest

from subconverge.sequences import ParameterSequence, as_sequence


def test_constant_bounds():
    seq = ParameterSequence.constant(1.5)
    assert seq.bounds() == (1.5, 1.5)
    assert seq(0) == seq(17) == 1.5


def test_periodic_cycles_and_bounds_are_its_min_max():
    seq = ParameterSequence.periodic([0.5, 0.9, 0.7])
    assert [seq(n) for n in range(5)] == [0.5, 0.9, 0.7, 0.5, 0.9]
    assert seq.bounds() == (0.5, 0.9)


def test_periodic_empty_rejected():
    with pytest.raises(ValueError):
        ParameterSequence.periodic([])


def test_tabulated_fallback():
    seq = ParameterSequence.tabulated([2.0, 3.0], fallback=2.5)
    assert seq(0) == 2.0
    assert seq(1) == 3.0
    assert seq(2) == 2.5
    assert seq(100) == 2.5
    assert seq.bounds() == (2.0, 3.0)


@pytest.mark.parametrize("seq,expected", [
    (ParameterSequence.constant(-0.25), (-0.25, -0.25)),
    (ParameterSequence.periodic([3, -1.5, 2]), (-1.5, 3.0)),
    (ParameterSequence.tabulated([0.4, 0.6], fallback=0.1), (0.1, 0.6)),
    (ParameterSequence.tabulated([0.4, 0.6], fallback=0.9), (0.4, 0.9)),
    (ParameterSequence.tabulated([], fallback=1.25), (1.25, 1.25)),
], ids=["constant", "periodic", "tabulated-fallback-min",
        "tabulated-fallback-max", "tabulated-fallback-only"])
def test_bounds_are_min_and_max_of_stored_values(seq, expected):
    assert seq.bounds() == expected
    assert seq.bounds() == (min(seq.stored_values()),
                            max(seq.stored_values()))
    # The bounds are values the sequence takes.
    emitted = {seq(n) for n in range(-3, 12)}
    assert set(seq.bounds()) <= emitted


def test_sample_indices_cover_representation():
    assert ParameterSequence.constant(1.0).sample_indices() == (0,)
    assert ParameterSequence.periodic([1, 2, 3]).sample_indices() == (0, 1, 2)
    tab = ParameterSequence.tabulated([1, 2], 0.5)
    assert len(tab.sample_indices()) > 2  # reaches the fallback


def test_as_sequence_coercion():
    assert as_sequence(2.0).bounds() == (2.0, 2.0)
    assert as_sequence([1.0, 2.0]).bounds() == (1.0, 2.0)
    seq = ParameterSequence.constant(3.0)
    assert as_sequence(seq) is seq
