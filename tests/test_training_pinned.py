"""Trained parameters, pinned bit for bit.

Each case trains for one or two epochs with l2 > 0 and compares the sha256
of the resulting parameter bytes (name, then value, in parameters() order)
with a recorded digest. A change to the order of any floating-point
operation in the forward pass, the backward sweep or the optimiser moves a
digest, so a refactor of any of them must leave these untouched.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import pinned_message
from morphogen import trainer as tr
from morphogen.charlm import train_lm
from morphogen.data import DatasetSplit, default_synth_spec, synth_language, tables_to_examples
from morphogen.model import VARIANTS

INESSIVE = "case=inessive"
ELATIVE = "case=elative"
L2 = 1e-3


def _dataset(tags):
    examples = [ex for ex in tables_to_examples(synth_language(default_synth_spec(), 8, seed=1))
                if ex.tag in tags]
    # no dev set: the parameters after the last epoch are returned
    return DatasetSplit(train=examples, dev=[], test=[])


def _digest(models):
    h = hashlib.sha256()
    for m in models:
        for p in m.parameters():
            h.update(p.name.encode())
            h.update(p.value.tobytes())
    return h.hexdigest()


FACTORED = {
    "full": "c6ac4b989774666dafae74d7ae5f9a43c8f4351f7503b1882c1c74025033d948",
    "plain-encdec": "c8c6b1adad34b9d5e6a8960b2151374f2d7cccf27ba030e3f61a539d0b83c794",
    "attention": "7c5af7631baf8a37e23b294f2e1b581d9d8b0cb62b22d84174abc62e7a91c117",
    "no-encoder": "32ccbdf8ead1781479b2428920851128630116f5801b23b4cbab2074bc41dc0c",
}
JOINT = "34a80c08fba15c81c8e570aecae3d84fd5a3644d769e43b69ec348846de6950a"
INTERPOLATED = ("10fecc09e0846c887a732ac3e3ea2d83ce98f6820143de4dedad89bbc46a750f",
                1.0160135655644078)


@pytest.mark.parametrize("variant", VARIANTS)
def test_factored_training_pinned(variant):
    config = tr.TrainConfig(hidden=4, epochs=2, l2=L2, seed=3, variant=variant)
    model = tr.train_factored(_dataset({INESSIVE}), INESSIVE, config)
    assert _digest([model]) == FACTORED[variant], pinned_message()


def test_joint_training_pinned():
    config = tr.TrainConfig(hidden=4, epochs=2, l2=L2, seed=5)
    models = tr.train_joint(_dataset({INESSIVE, ELATIVE}), config)
    assert sorted(models) == [ELATIVE, INESSIVE]
    assert _digest([models[t] for t in sorted(models)]) == JOINT, pinned_message()


def test_interpolated_training_pinned():
    dataset = _dataset({INESSIVE})
    lm = train_lm([ex.inflected for ex in dataset.train], order=3)
    config = tr.TrainConfig(hidden=4, epochs=2, l2=L2, seed=7, lambda_init=0.5)
    model = tr.train_factored(dataset, INESSIVE, config, lm=lm)
    digest, want_lam = INTERPOLATED
    assert _digest([model]) == digest, pinned_message()
    assert np.float64(model.lm_lambda).tobytes() == np.float64(want_lam).tobytes(), \
        pinned_message()


def test_dispatch_target_reads_the_forced_target():
    """Under the two variables that pinned_message names, dispatch_target
    reads the forced OpenBLAS core and drops the disabled SIMD features."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import helpers; print(helpers.dispatch_target())"
    forced = subprocess.run([sys.executable, "-c", code],
                            env=env, capture_output=True, text=True, check=True).stdout
    simd, blas = forced.strip().removeprefix("NumPy SIMD [").split("], OpenBLAS core ")
    assert blas == "Haswell"
    assert simd != "unknown" and "SSE2" in simd.split()
    assert not {"AVX512_SPR", "AVX512_ICL", "X86_V4"} & set(simd.split())
