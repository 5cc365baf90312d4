"""Test-only substitutions that reduce a layer to a simpler one.

Each works through the layer's own parameters or attributes, so the
production classes carry no switches for them.
"""

import numpy as np

from mhssm.nn import Linear
from mhssm.tensor import Tensor


def identity_linear(dim: int) -> Linear:
    """A ``dim`` x ``dim`` Linear layer that maps its input to itself."""
    lin = Linear(dim, dim, np.random.default_rng(0))
    lin.set_params({"w": Tensor(np.eye(dim), requires_grad=True),
                    "b": Tensor(np.zeros(dim), requires_grad=True)})
    return lin


def set_identity_ssm(*stages):
    """Make each stage's state space system the identity map, exactly.

    A zero readout (c = 0) gives a zero kernel and a unit skip (d = 1) passes
    the input through, so the convolution returns its input bit for bit.
    """
    for stage in stages:
        shape, channels = stage.ssm.c_re.shape, stage.ssm.channels
        stage.ssm.set_params({
            "c_re": Tensor(np.zeros(shape), requires_grad=True),
            "c_im": Tensor(np.zeros(shape), requires_grad=True),
            "d": Tensor(np.ones(channels), requires_grad=True),
        })


def tie_directions(block):
    """Copy a bidirectional block's forward-direction parameters onto its backward one."""
    block.bwd.set_params({
        name: Tensor(value.data.copy(), requires_grad=True)
        for name, value in block.fwd.named_params().items()
    })
