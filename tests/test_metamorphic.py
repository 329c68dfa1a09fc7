"""Metamorphic tests: relabellings and apparatus rotations that the paper's
structure says leave an audit unchanged.

Each test audits a random attack and a transformed copy of it with the
pretty good measurement alone (``samples=0``), and compares every report
field at 1e-12.  The relations need no dense state, so they hold at any
cell the audit reaches:

* an XOR relabelling ``K'[i, j] = K[i ^ s, j ^ s]`` is the shift
  covariance that symmetrization rests on;
* a unitary ``V`` on the apparatus, ``K' = K @ V.T``, rotates every state
  of the ensemble and every Kraus vector alike;
* a permutation of the qubits, applied to input and output labels alike,
  preserves XOR and the bit-wise dot product.

Two attacks side by side on disjoint qubits and apparatus form one attack
whose Kraus table is the tensor product of theirs.  On it ``h_xor``,
``chi_orig`` and ``chi_sym`` add and the no-error probability ``1 - delta``
multiplies; ``i_lower`` is left out, since accessible information is not
additive.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubeve.bounds import audit_attack
from mubeve.channel import AttackChannel
from mubeve.rng import random_unitary
from mubeve.zoo import random_attack

FIELDS = ("delta", "h_xor", "chi_orig", "chi_sym", "i_lower", "boykin_rhs",
          "corollary_rhs", "slack_main", "slack_measured", "spectrum_deviation")
TOL = 1e-12

# every n the parser accepts, total dimension 2**n * eve_dim <= 64
ATTACKS = st.builds(
    lambda cell, seed: random_attack(*cell, seed),
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 64 >> n))),
    st.integers(0, 2**64 - 1),
)
CHECKED = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def assert_same_audit(ch, kraus):
    before = audit_attack(ch, 0, 0)
    after = audit_attack(AttackChannel(ch.n, kraus.shape[2], kraus), 0, 0)
    for field in FIELDS:
        x, y = getattr(before, field), getattr(after, field)
        assert abs(x - y) <= TOL, (field, x, y)


def relabelled(kraus, labels):
    """``K'[i, j] = K[labels[i], labels[j]]``."""
    return kraus[np.ix_(labels, labels)]


@CHECKED
@given(ch=ATTACKS, data=st.data())
def test_xor_relabelling(ch, data):
    shift = data.draw(st.integers(0, ch.dim - 1))
    assert_same_audit(ch, relabelled(ch.kraus, np.arange(ch.dim) ^ shift))


@CHECKED
@given(ch=ATTACKS, seed=st.integers(0, 2**64 - 1))
def test_apparatus_unitary(ch, seed):
    v = random_unitary(ch.eve_dim, seed)
    assert_same_audit(ch, ch.kraus @ v.T)


@CHECKED
@given(ch=ATTACKS, data=st.data())
def test_qubit_permutation(ch, data):
    order = np.array(data.draw(st.permutations(range(ch.n))))
    weights = 1 << np.arange(ch.n)[::-1]            # qubit 1 is the top bit
    bits = (np.arange(ch.dim)[:, None] & weights) > 0
    assert_same_audit(ch, relabelled(ch.kraus, bits[:, order] @ weights))


def product_table(a, b):
    """``K[(i, k), (j, l)] = A[i, j] (x) B[k, l]``: the left factor owns the
    top bits of the strings and of the apparatus."""
    d = a.shape[0] * b.shape[0]
    return np.einsum("ija,klb->ikjlab", a, b).reshape(d, d, a.shape[2] * b.shape[2])


def assert_product_audit(left, right):
    # AttackChannel and audit_attack take any n, so the product may pass N_MAX
    both = AttackChannel(left.n + right.n, left.eve_dim * right.eve_dim,
                         product_table(left.kraus, right.kraus))
    whole, a, b = (audit_attack(ch, 0, 0) for ch in (both, left, right))
    for field in ("h_xor", "chi_orig", "chi_sym"):
        x, y, z = getattr(whole, field), getattr(a, field), getattr(b, field)
        assert abs(x - (y + z)) <= TOL, (field, x, y, z)
    assert abs((1 - whole.delta) - (1 - a.delta) * (1 - b.delta)) <= TOL


@CHECKED
@given(data=st.data())
def test_tensor_product(data):
    # n1 + n2 <= 4 and total dimension 2**(n1 + n2) * e1 * e2 <= 64
    n1 = data.draw(st.integers(1, 3))
    n2 = data.draw(st.integers(1, 4 - n1))
    room = 64 >> (n1 + n2)
    e1 = data.draw(st.integers(1, room))
    e2 = data.draw(st.integers(1, room // e1))
    s1, s2 = data.draw(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))
    assert_product_audit(random_attack(n1, e1, s1), random_attack(n2, e2, s2))


@pytest.mark.slow
@pytest.mark.parametrize("left, right", [
    ((4, 1), (1, 2)), ((3, 2), (3, 2)), ((4, 1), (3, 2)), ((4, 2), (4, 1)), ((4, 1), (4, 1)),
], ids=str)
def test_tensor_product_beyond_n_max(left, right):
    # products of n = 5 to 8 at total dimension <= 512
    assert_product_audit(random_attack(*left, 5), random_attack(*right, 6))
