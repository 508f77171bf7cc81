"""Random perfect-reconstruction stacks, and the dense or zero-stuffed
references that the composed and placed filters are checked against."""

import numpy as np
from hypothesis import strategies as st

from waverg import BinaryCircuit, FirFilter, Gate2, Harmonic, LayerStack, compose


def random_gate(draw, parity):
    a = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    b, c = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
    return Gate2(np.array([[a, b], [c, (1.0 + b * c) / a]]), parity)


@st.composite
def pr_stacks(draw):
    """A random perfect-reconstruction stack and a ring: each layer composes
    1 to 4 random det-1 gates, squeezes lie in [0.5, 2], and the ring runs
    from twice the support up.  Half the stacks repeat one pair with alike
    squeezes after the first, so that walks are reused with c != 1."""
    depth = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    pairs = []
    for _ in range(1 if shared else depth):
        gates = [random_gate(draw, ("even", "odd")[i % 2])
                 for i in range(draw(st.integers(1, 4)))]
        pairs.append(compose(BinaryCircuit(gates)))
    squeezes = draw(st.lists(st.floats(0.5, 2.0), min_size=depth,
                             max_size=depth))
    if shared:
        pairs *= depth
        squeezes[2:] = squeezes[1:2] * (depth - 2)
    stack = LayerStack(pairs, squeezes, Harmonic(0.0))
    P = 1 << depth
    least = -(-2 * stack.max_support // P)
    return stack, P * draw(st.integers(least, least + 3))


def placed(filt, N, stride):
    """Reference placement: one tap at a time, so taps on one site add."""
    out = np.zeros((N // stride, N))
    for n in range(N // stride):
        for i, c in zip(filt.indices(), filt.coeffs):
            out[n, (stride * n + i) % N] += c
    return out


def reference_chain(pairs, channel, N, scales):
    """Per-layer placed maps w, each acting as w (+) identity on the rows
    already produced: multi_layer_map without composed filters."""
    total = np.eye(N)
    size = N
    for pair, s in zip(pairs, scales):
        a_s, a_w = pair.channel(channel)
        w = s * np.vstack([placed(a_s, size, 2), placed(a_w, size, 2)])
        total[:size] = w @ total[:size]
        size //= 2
    return total


def zero_stuffed_level_filters(pairs, channel, scales=None):
    """level_filters composed the textbook way: each level convolves with
    the layer filters upsampled by 2^l (FirFilter.upsample)."""
    scaling, wavelets = FirFilter.delta(), []
    for l, pair in enumerate(pairs):
        s = 1.0 if scales is None else scales[l]
        a_s, a_w = (f.upsample(1 << l) for f in pair.channel(channel))
        wavelets.append(s * scaling.convolve(a_w))
        scaling = s * scaling.convolve(a_s)
    return scaling, wavelets
