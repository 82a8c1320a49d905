import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chaintrace.errors import BadParameters, InconsistentShares, InsufficientShares
from chaintrace.secretshare import (
    ShamirShare,
    gf_div,
    gf_inv,
    gf_mul,
    gf_mul_slow,
    read_share_file,
    reconstruct_secret,
    split_secret,
    write_share_file,
)
from oracles import gf256_mul_ref, shamir_eval_ref


def test_gf_mul_exhaustive_against_reference():
    for a in range(256):
        for b in range(256):
            ref = gf256_mul_ref(a, b)
            assert gf_mul(a, b) == ref
            assert gf_mul_slow(a, b) == ref


def test_gf_field_axioms():
    rng = random.Random(0)
    for _ in range(2000):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)
        # distributivity over XOR addition
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0


def test_gf_inverse_exhaustive():
    for a in range(1, 256):
        inv = gf_inv(a)
        assert gf_mul(a, inv) == 1
        assert gf_div(a, a) == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_known_polynomial_shares():
    # secret byte 0x53 with degree-1 coefficient 0x02
    coeffs = [0x53, 0x02]
    assert shamir_eval_ref(coeffs, 1) == 0x51
    assert shamir_eval_ref(coeffs, 2) == 0x57
    assert shamir_eval_ref(coeffs, 3) == 0x55
    shares = [
        ShamirShare(1, bytes([0x51])),
        ShamirShare(2, bytes([0x57])),
        ShamirShare(3, bytes([0x55])),
    ]
    for pair in combinations(shares, 2):
        assert reconstruct_secret(list(pair)) == bytes([0x53])


def test_split_matches_polynomial_reference():
    rng = random.Random(7)
    secret = bytes(rng.randrange(256) for _ in range(5))
    shares = split_secret(secret, 3, 5, rng=random.Random(7))
    # re-derive the coefficients the seeded rng must have drawn
    rng2 = random.Random(7)
    for pos, byte in enumerate(secret):
        coeffs = [byte] + [rng2.randrange(256) for _ in range(2)]
        for s in shares:
            assert s.y[pos] == shamir_eval_ref(coeffs, s.x)


@pytest.mark.parametrize("k,n", [(1, 1), (2, 3), (3, 5), (4, 6), (6, 6)])
def test_all_k_subsets_reconstruct(k, n):
    rng = random.Random(k * 100 + n)
    secret = bytes(rng.randrange(256) for _ in range(16))
    shares = split_secret(secret, k, n, rng=rng)
    for subset in combinations(shares, k):
        assert reconstruct_secret(list(subset)) == secret


def test_fewer_than_k_shares_rejected():
    shares = split_secret(b"topsecret", 3, 5, rng=random.Random(1))
    with pytest.raises(InsufficientShares):
        reconstruct_secret(shares[:2], threshold=3)
    with pytest.raises(InsufficientShares):
        reconstruct_secret([])


def test_k_minus_one_shares_reveal_nothing():
    # Fix k-1 shares of a 1-byte secret; for every candidate secret there
    # is exactly one consistent polynomial, so the posterior is uniform.
    shares = split_secret(bytes([0xA7]), 2, 3, rng=random.Random(4))
    held = shares[0]
    consistent = {
        candidate: 0
        for candidate in range(256)
    }
    for a1 in range(256):
        for candidate in range(256):
            if shamir_eval_ref([candidate, a1], held.x) == held.y[0]:
                consistent[candidate] += 1
    assert set(consistent.values()) == {1}


def test_fabricated_share_hits_every_secret():
    # With one real share in hand, varying a forged second share's y byte
    # sweeps the reconstructed secret across all 256 values exactly once.
    shares = split_secret(bytes([0x3C]), 2, 2, rng=random.Random(9))
    real = shares[0]
    outcomes = set()
    for y in range(256):
        forged = ShamirShare(x=2, y=bytes([y]))
        outcomes.add(reconstruct_secret([real, forged])[0])
    assert outcomes == set(range(256))


def test_inconsistent_shares():
    shares = split_secret(b"ab", 2, 3, rng=random.Random(2))
    with pytest.raises(InconsistentShares):
        reconstruct_secret([shares[0], ShamirShare(shares[0].x, b"zz")])
    with pytest.raises(InconsistentShares):
        reconstruct_secret([shares[0], ShamirShare(2, b"z")])


def test_bad_parameters():
    with pytest.raises(BadParameters):
        split_secret(b"", 2, 3)
    with pytest.raises(BadParameters):
        split_secret(b"x", 4, 3)
    with pytest.raises(BadParameters):
        split_secret(b"x", 0, 3)
    with pytest.raises(BadParameters):
        ShamirShare(0, b"x")
    with pytest.raises(BadParameters):
        ShamirShare(256, b"x")


@given(
    secret=st.binary(min_size=1, max_size=64),
    k=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_split_reconstruct_property(secret, k, extra, seed):
    n = k + extra
    shares = split_secret(secret, k, n, rng=random.Random(seed))
    rng = random.Random(seed + 1)
    subset = rng.sample(shares, k)
    assert reconstruct_secret(subset, threshold=k) == secret


def test_share_file_roundtrip(tmp_path):
    share = ShamirShare(7, bytes(range(32)))
    path = str(tmp_path / "share.txt")
    write_share_file(path, share)
    assert read_share_file(path) == share


def test_share_file_tamper_detected(tmp_path):
    share = ShamirShare(7, bytes(range(32)))
    path = str(tmp_path / "share.txt")
    write_share_file(path, share)
    text = open(path).read().replace("y: 000102", "y: ff0102")
    open(path, "w").write(text)
    with pytest.raises(InconsistentShares):
        read_share_file(path)


@pytest.mark.parametrize("text,damaged", [("x: 07", "x: 1ff"), ("x: 07", "x: -1"),
                                          ("y: 00", "y: \xff")])
def test_share_file_garbled_is_inconsistent(tmp_path, text, damaged):
    path = tmp_path / "share.txt"
    write_share_file(str(path), ShamirShare(7, bytes(range(32))))
    data = path.read_text().replace(text, damaged).encode("latin-1")
    path.write_bytes(data)
    with pytest.raises(InconsistentShares):
        read_share_file(str(path))


def test_share_file_bad_magic(tmp_path):
    path = str(tmp_path / "nope.txt")
    open(path, "w").write("hello\n")
    with pytest.raises(InconsistentShares):
        read_share_file(path)
