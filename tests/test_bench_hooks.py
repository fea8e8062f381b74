"""The benchmark tracer (perfbench/tracing.py) wraps program functions by
module or class attribute. A renamed function, or one a caller reaches
around its attribute, breaks the traced run or silently zeroes its
per-layer numbers; these tests catch both in the unit suite."""

import sys
from pathlib import Path

import pytest

from morphogen import data, search, trainer
from morphogen.charlm import train_lm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

TARGETS = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS


@pytest.mark.parametrize("owner, attr, name", TARGETS, ids=[t[2] for t in TARGETS])
def test_traced_attribute_exists(owner, attr, name):
    assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr!r}"


def test_every_traced_function_is_reached():
    spec = data.default_synth_spec()
    examples = data.tables_to_examples(data.synth_language(spec, 4, seed=0))
    tag = examples[0].tag
    dataset = data.DatasetSplit(train=examples, dev=examples[:4], test=[])
    tracer = tracing.Tracer()
    with tracer.installed():
        models = [trainer.train_factored(
            dataset, tag, trainer.TrainConfig(hidden=3, epochs=1, variant=variant))
            for variant in ("attention", "full")]
        lm = train_lm([ex.inflected for ex in examples], order=2)
        x_ids = models[0].vocab.encode(examples[0].lemma)
        search.beam_decode(models, x_ids, 2, len(x_ids) + 2, lm=lm)
    seen = {name for (_, _, name), stat in tracer.stats.items() if stat.count}
    seen |= {name for (_, _, name), n in tracer.counts.items() if n}
    assert {name for _, _, name in TARGETS} <= seen
