"""The stacked branch-matrix powers against the per-matrix loop they replaced.

superpositions._branch_matrix_mi raises a whole stack of factor matrices
to the exponents w/2, w = f, 1, 1 - f, in one broadcast power, and takes
the exponent 0.5 through np.sqrt. ref_branch_matrix_mi is the earlier
implementation, kept verbatim: one power per matrix and exponent, each
with a Python-float exponent, which numpy evaluates as sqrt at 0.5. The
two must agree bit for bit on every realizable stack: M = 2..4 branches,
uniform, uneven and zero weights, f at random and at 0, 1/2 and 1, and
every way f and the stack broadcast.
"""

import numpy as np
import pytest

from photon_darwinism.entropy_kernels import _result, xlogx
from photon_darwinism.superpositions import _branch_matrix_mi


def ref_branch_matrix_mi(probs, gamma, f):
    amp, M = np.sqrt(probs), probs.size
    lead = np.broadcast_shapes(gamma.shape[:-2], np.shape(f))
    gammas = np.broadcast_to(gamma, lead + (M, M)).reshape(-1, M, M)
    ws = [(fi, 1.0, 1.0 - fi)
          for fi in np.broadcast_to(f, lead).ravel().tolist()]
    # E(w) at w = f, 1 and 1 - f, diagonalized in one stacked call; each
    # power keeps the Python-float exponent of a single-matrix call.
    rho = np.outer(amp, amp) * np.array(
        [[g ** (0.5 * w) for w in row] for g, row in zip(gammas, ws)])
    eigs = np.linalg.eigvalsh(rho)
    lowest = eigs.min(axis=-1)
    for i, k in np.argwhere(lowest < -1e-9)[:1]:
        raise ArithmeticError(
            f"branch matrix at w = {ws[i][k]} is not positive semidefinite "
            f"(min eigenvalue {lowest[i, k]:.3e}); the factor matrix is "
            "not realizable by photon overlaps"
        )
    e_f, e_whole, e_rest = np.moveaxis(
        -xlogx(np.clip(eigs, 0.0, None)).sum(axis=-1), -1, 0)
    return _result((e_f + e_whole - e_rest).reshape(lead))


def realizable_stack(rng, shape, M):
    """Factor matrices exp(-|x_a - x_b|^2) of random branch points x: every
    power of a Gaussian kernel is positive semidefinite. Far-apart points
    give factors that underflow to 0, and coinciding ones factors of 1."""
    x = rng.normal(size=shape + (M, 3)) * 10.0 ** rng.uniform(-2.0, 1.5)
    if rng.random() < 0.2:
        x[..., 1, :] = x[..., 0, :]
    return np.exp(-((x[..., :, None, :] - x[..., None, :, :]) ** 2).sum(-1))


def fractions(rng, shape):
    """Random f with the edges 0, 1/2 and 1 mixed in."""
    f = rng.random(shape)
    pick = rng.random(shape)
    f[pick < 0.1] = 0.0
    f[(0.1 <= pick) & (pick < 0.2)] = 0.5
    f[(0.2 <= pick) & (pick < 0.3)] = 1.0
    return f


def weights(rng, M, kind):
    if kind == "uniform":
        return np.full(M, 1.0 / M)
    probs = rng.dirichlet(np.ones(M))
    if kind == "with-zero":
        probs[0] = 0.0
        probs /= probs.sum()
    return probs


def same_bits(a, b):
    return (type(a) is type(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


# (stack shape, f shape): a stack with one f each, a scalar f with a
# stacked gamma, a stacked f with one matrix, and a two-axis broadcast.
LAYOUTS = [((40,), (40,)), ((40,), ()), ((), (40,)), ((5, 1), (1, 8)),
           ((), ())]


@pytest.mark.parametrize("kind", ["uniform", "uneven", "with-zero"])
@pytest.mark.parametrize("M", [2, 3, 4])
def test_stacked_powers_keep_their_bits(M, kind):
    # 120 stacks for each of the 9 parameter sets, 1,080 in all.
    rng = np.random.default_rng([M, len(kind)])
    for trial in range(120):
        shape, f_shape = LAYOUTS[trial % len(LAYOUTS)]
        probs = weights(rng, M, kind)
        gamma = realizable_stack(rng, shape, M)
        f = fractions(rng, f_shape)
        f = float(f) if f_shape == () else f
        assert same_bits(_branch_matrix_mi(probs, gamma, f),
                         ref_branch_matrix_mi(probs, gamma, f))


def test_the_non_psd_error_names_the_same_w():
    gamma = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
    probs = np.full(3, 1.0 / 3.0)
    f = np.array([0.25, 0.75])
    messages = []
    for mi in (_branch_matrix_mi, ref_branch_matrix_mi):
        with pytest.raises(ArithmeticError) as info:
            mi(probs, gamma, f)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
