import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (InvalidTripletError, NotWellFormedError, Triplet,
                        apply_map, apply_map_iter, check_wellformed,
                        parse_triplet, signed_residue)


def test_signed_residue_basics():
    assert signed_residue(7, 3, 1) == 1
    assert signed_residue(7, 3, -1) == 2
    assert signed_residue(6, 3, -1) == 0
    assert signed_residue(6, 3, 1) == 0


@given(n=st.integers(1, 10**9), d=st.integers(2, 1000))
def test_signed_residue_mirror_identity(n, d):
    # [-n]_d = d - [n]_d whenever d does not divide n, else 0
    r = signed_residue(n, d, 1)
    m = signed_residue(n, d, -1)
    assert m == (0 if r == 0 else d - r)
    assert 0 <= m < d


def test_triplet_validation():
    with pytest.raises(InvalidTripletError):
        Triplet(1, 3, 1, 1)
    with pytest.raises(InvalidTripletError):
        Triplet(2, 2, 1, 1)  # alpha must exceed d
    with pytest.raises(InvalidTripletError):
        Triplet(2, 4, 1, 1)  # d | alpha
    with pytest.raises(InvalidTripletError):
        Triplet(3, 5, 6, 1)  # d | beta
    with pytest.raises(InvalidTripletError):
        Triplet(3, 5, -6, 1)  # d | |beta|
    with pytest.raises(InvalidTripletError):
        Triplet(3, 5, 1, 0)


def test_parse_and_text_roundtrip():
    for text in ("2:3:1:+", "3:28:-19:+", "3:8:5:-", "10:12:8:+"):
        assert parse_triplet(text).text == text
    with pytest.raises(InvalidTripletError):
        parse_triplet("2:3:1")


def test_wellformed_classical():
    wf = check_wellformed(Triplet(2, 3, 1, 1))
    assert wf.satisfied and wf.divisibility_ok and wf.magnitude_ok
    assert wf.witness is None


def test_wellformed_divisibility_failure():
    wf = check_wellformed(Triplet(3, 5, 2, 1))
    assert not wf.satisfied
    assert not wf.divisibility_ok and wf.magnitude_ok
    # T(1) = 7/3 is not integral
    assert wf.witness == 1


def test_wellformed_magnitude_failure():
    wf = check_wellformed(Triplet(5, 7, -3, -1))
    assert not wf.satisfied
    assert wf.divisibility_ok and not wf.magnitude_ok
    # T(1) = -1 is not positive
    assert wf.witness == 1


def test_wellformed_minus_family():
    assert check_wellformed(Triplet(3, 5, 2, -1)).satisfied


def test_apply_map_examples():
    assert apply_map(Triplet(2, 3, 1, 1), 7) == 11
    assert apply_map(Triplet(10, 12, 8, 1), 7) == 14
    assert apply_map(Triplet(3, 8, 5, -1), 1) == 6


def test_apply_map_rejects_malformed():
    with pytest.raises(NotWellFormedError):
        apply_map(Triplet(3, 5, 2, 1), 1)


def test_apply_map_iter_examples():
    assert apply_map_iter(Triplet(2, 3, 1, 1), 1, 2) == 1
    assert apply_map_iter(Triplet(10, 12, 8, 1), 4, 6) == 4
    assert apply_map_iter(Triplet(2, 3, 1, 1), 6, 0) == 6


@given(n=st.integers(1, 10**4))
@settings(max_examples=200)
def test_map_stays_natural_when_wellformed(n):
    for t in (Triplet(2, 3, 1, 1), Triplet(5, 6, 4, 1), Triplet(3, 4, 1, -1),
              Triplet(3, 28, -19, 1)):
        v = apply_map(t, n)
        assert isinstance(v, int) and v >= 1


@given(n=st.integers(1, 10**6))
def test_plus_branch_identity(n):
    # for kappa=+1 and d not dividing n: d*T(n) = alpha*n + beta*(n mod d)
    t = Triplet(5, 6, 4, 1)
    if n % 5 != 0:
        assert 5 * apply_map(t, n) == 6 * n + 4 * (n % 5)


@given(n=st.integers(1, 10**5), j=st.integers(0, 30), k=st.integers(0, 30))
@settings(max_examples=100)
def test_iterate_additivity(n, j, k):
    t = Triplet(2, 3, 1, 1)
    assert apply_map_iter(t, n, j + k) == apply_map_iter(t, apply_map_iter(t, n, j), k)


def test_dplus1_triplets_wellformed_through_100():
    for d in range(2, 101):
        assert Triplet(d, d + 1, -1, 1).is_wellformed
        assert Triplet(d, d + 1, 1, -1).is_wellformed


# every sign combination of (kappa, beta): the step takes n % (kappa*d), a
# negative modulus for kappa = -1, where apply_map takes [kappa*n]_d
STEP_TRIPLETS = ("2:3:1:+", "3:8:5:-", "10:12:8:+", "3:28:-19:+", "3:5:-1:-")


def test_step_function_matches_apply_map():
    for text in STEP_TRIPLETS:
        t = parse_triplet(text)
        step = t.step_function()
        for n in range(1, 500):
            assert step(n) == apply_map(t, n)


@given(text=st.sampled_from(STEP_TRIPLETS), n=st.integers(10**12, 10**40))
def test_step_function_matches_apply_map_on_multi_limb_n(text, n):
    t = parse_triplet(text)
    assert t.step_function()(n) == apply_map(t, n)


def test_json_dict_uses_decimal_strings():
    rec = Triplet(10, 12, 8, 1).to_json_dict()
    assert rec == {"d": "10", "alpha": "12", "beta": "8", "kappa": "+"}
