"""Dense reference route for the audited quantities.

``mubeve.bounds.audit_attack`` computes each quantity once, from the Kraus
table.  The functions here compute the same quantities the long way, from
dense apparatus states, dense POVM element stacks and the purification
Gram of the symmetrized table, and the tests compare the two routes.  They
take plain arrays: label priors with a ``(count, d, d)`` state stack, and
``(count, d, d)`` element stacks.  The measured search is the oracle's
own and shares no scoring code with the audit's: the dense pretty good
measurement is a checked element stack, each random basis is measured as
its projectors on the dense states, and the information comes from
``shannon_entropies``.  Test files import this module as ``oracle``; the
package never imports it.
"""

import numpy as np

from mubeve import bounds
from mubeve.channel import AttackChannel, _conjugate_kraus
from mubeve.errors import (
    DimensionMismatchError,
    InvalidPovmError,
    NotADistributionError,
    TranslationInvarianceError,
)
from mubeve.linalg import (
    TAU_SUPPORT,
    DensityMatrix,
    _check_hermitian,
    _check_probabilities,
    _eigh,
    _entropy_bits,
    _matrix_of,
    mub_transform,
    sign_grid,
    spectral_entropies,
    xor_regroup,
)
from mubeve.rng import SplitMix64, gram_schmidt_unitary

# Checks of the dense Gram route only: on the audit's Walsh route the
# profile is translation-invariant and its spectrum real by construction.
TAU_SPREAD = 1e-10   # spread of a purification overlap over pairs with one i XOR j
TAU_FOURIER = 1e-9   # Fourier eigenvalues: imaginary part, and gap to the eigensolver


def bit_dot(a, b):
    """Bit-wise product of two indices, summed mod 2."""
    return (a & b).bit_count() & 1


def shannon_entropies(p):
    """Shannon entropy in bits of each row (last axis) of a probability
    table.  Every row must pass the package's probability rule, else
    NotADistributionError; entries in [-TAU_PSD, 0) count as 0."""
    arr = np.asarray(p, dtype=float)
    _check_probabilities(arr, NotADistributionError)
    return _entropy_bits(arr)


def shannon_entropy(p):
    """The one-row case of ``shannon_entropies``."""
    return float(shannon_entropies(np.reshape(p, (1, -1)))[0])


def hermitian_eigenvalues(a):
    """Eigenvalues of a Hermitian matrix (checked to TAU_HERM), descending."""
    return _eigh(_check_hermitian(a), want_vectors=False)[0][::-1]


def von_neumann_entropy(rho):
    """Entropy in bits of one density matrix, with the positive-part
    policy of ``spectral_entropies``."""
    return float(spectral_entropies(hermitian_eigenvalues(_matrix_of(rho))))


def eve_states(ch):
    """All apparatus states ``rho_i = sum_j |K_ij><K_ij|`` of a channel as
    one C-contiguous ``(2**n, eve_dim, eve_dim)`` stack."""
    k = ch.kraus
    out = np.empty((ch.dim, ch.eve_dim, ch.eve_dim), dtype=complex)
    return np.einsum("ijd,ije->ide", k, k.conj(), out=out)


def uniform_ensemble(ch):
    """Uniform label priors and the dense apparatus states of a channel."""
    return np.full(ch.dim, 1.0 / ch.dim), eve_states(ch)


def holevo_chi(priors, states):
    """Entropy of the prior-weighted average state minus the average
    entropy, in bits."""
    avg = sum(p * s for p, s in zip(priors, states))
    individual = sum(p * von_neumann_entropy(s) for p, s in zip(priors, states))
    return float(von_neumann_entropy(avg) - individual) + 0.0  # normalize -0.0


def label_information(priors, cond):
    """Mutual information ``H(A) + H(E) - H(A, E)`` in bits between the
    label, drawn with ``priors``, and the outcome, drawn with ``cond[i, a] =
    p(a|i)``; each table must pass ``shannon_entropies``."""
    priors = np.asarray(priors, dtype=float)
    joint = priors[:, None] * cond
    return (shannon_entropy(priors) + shannon_entropy(joint.sum(axis=0))
            - shannon_entropy(joint.reshape(-1)))


def mutual_information(priors, states, elements):
    """Mutual information in bits between the label and the outcome of
    measuring the POVM element stack on the state stack, ``p(a|i) = tr(X_a
    rho_i)``.  The elements must match the states' dimension and pass
    ``_check_povm_stack``, else InvalidPovmError."""
    elements = np.asarray(elements, dtype=complex)
    if elements.shape[1:] != np.shape(states)[1:]:
        raise InvalidPovmError(f"POVM elements {elements.shape[1:]} do not match the states")
    bounds._check_povm_stack(elements)
    return label_information(priors, np.einsum("axy,iyx->ia", elements, states).real)


def random_bases(d, samples, seed):
    """The first ``samples`` orthonormal bases (as columns) of the stream
    seeded with ``seed``, drawn one at a time."""
    stream = SplitMix64(seed)
    return [gram_schmidt_unitary(stream.gaussian_matrix(d, d)) for _ in range(samples)]


def basis_probabilities(states, basis):
    """``p[i, a] = <b_a|rho_i|b_a>``: the projectors onto the columns of
    ``basis``, measured on the state stack without forming them."""
    return np.einsum("xa,ixy,ya->ia", basis.conj(), states, basis, optimize=True).real


def pretty_good_measurement(priors, states):
    """Square-root measurement ``X_i = avg^(-1/2) (p_i rho_i) avg^(-1/2)``
    on all of the states' dimension, checked by ``_check_povm_stack``.

    The inverse square root is taken on the support (eigenvalues up to
    TAU_SUPPORT dropped), and the complement of the support is split
    evenly across the elements so the family is complete (Hausladen &
    Wootters, J. Mod. Opt. 41, 2385 (1994)).
    """
    weighted = np.asarray(priors, dtype=float)[:, None, None] * states
    w, v = _eigh(weighted.sum(axis=0), want_vectors=True)
    w, v = w[::-1], v[:, ::-1]                               # descending
    keep = w > TAU_SUPPORT
    vk = v[:, keep]
    inv_sqrt = (vk * (1.0 / np.sqrt(w[keep]))) @ vk.conj().T
    complement = np.eye(weighted.shape[-1]) - vk @ vk.conj().T
    x = inv_sqrt @ weighted @ inv_sqrt + complement / len(priors)
    x = 0.5 * (x + x.conj().swapaxes(-1, -2))
    bounds._check_povm_stack(x)
    return x


def accessible_info_lower_bound(priors, states, samples, seed):
    """Best mutual information over the dense pretty good measurement and
    the projective measurements onto ``random_bases(d, samples, seed)``."""
    best = mutual_information(priors, states, pretty_good_measurement(priors, states))
    for basis in random_bases(np.shape(states)[-1], samples, seed):
        best = max(best, label_information(priors, basis_probabilities(states, basis)))
    return best


def purification_vectors(sym):
    """Row i is ``sum_j kraus[i, j] (x) |i^j>`` in (apparatus) x
    (reference), the reference owning the least significant index bits:
    one normalized purification of each apparatus state of ``sym``."""
    return xor_regroup(sym.kraus).transpose(1, 2, 0).reshape(sym.dim, -1)


def sigma_matrix(vectors):
    """Gram state ``sigma[i, j] = 2**-n <phi_j|phi_i>`` of one purification
    per row (2**n rows), checked as a DensityMatrix, and its Fourier
    spectrum ``lambdas``.

    The overlap profile must depend on i XOR j alone (spread within
    TAU_SPREAD) and its Fourier transform must be real (within
    TAU_FOURIER), else TranslationInvarianceError.
    """
    vecs = np.asarray(vectors, dtype=complex)
    d = vecs.shape[0] if vecs.ndim == 2 else 0
    n = d.bit_length() - 1
    if n < 1 or d != 1 << n:
        raise DimensionMismatchError(
            f"purifications are {vecs.shape}, expected 2**n rows with n >= 1"
        )
    gram = vecs @ vecs.conj().T
    reps = xor_regroup(gram)             # reps[t, i] = gram[i, i ^ t]
    spread = float(np.max(np.abs(reps - reps[:, :1])))
    if spread > TAU_SPREAD:
        raise TranslationInvarianceError(
            f"overlap profile varies by {spread:.3e} across representatives"
        )
    lambdas = sign_grid(n) @ gram[0] / float(d)
    if float(np.max(np.abs(lambdas.imag))) > TAU_FOURIER:
        raise TranslationInvarianceError("Fourier eigenvalues are not real")
    return DensityMatrix(gram / float(d)).matrix, lambdas.real


def sigma_spectrum_check(sigma, lambdas, probs):
    """Largest deviation between the Fourier eigenvalues and the error
    probabilities, index by index.  The Fourier eigenvalues must equal the
    eigensolver's spectrum of ``sigma`` as multisets, within TAU_FOURIER,
    else TranslationInvarianceError."""
    solver = _eigh(sigma, want_vectors=False)[0][::-1]
    xcheck = float(np.max(np.abs(solver - np.sort(lambdas)[::-1])))
    if xcheck > TAU_FOURIER:
        raise TranslationInvarianceError(
            f"Fourier and eigensolver spectra disagree by {xcheck:.3e}"
        )
    return float(np.max(np.abs(lambdas - probs)))


def to_conjugate_basis(ch):
    """The same interaction in the conjugate encoding basis, ``kraus'[l, s]
    = 2**-n sum_ij (-1)**(s.j + i.l) kraus[i, j]``: an involution that
    preserves unitarity, which ``AttackChannel`` checks."""
    return AttackChannel(ch.n, ch.eve_dim, _conjugate_kraus(ch.n, ch.kraus))


def bob_conjugate_state(ch, i):
    """State reaching the receiver when string i is sent in the conjugate
    basis, in the computational representation: its conjugate-basis
    diagonal holds the receiver's outcome probabilities."""
    kbar = _conjugate_kraus(ch.n, ch.kraus)[i]
    comps = np.einsum("ld,jd->jl", kbar.conj(), kbar)
    h = mub_transform(ch.n)
    return DensityMatrix(h @ comps @ h)
