"""Every numeric argument the library validates is refused in one way.

``records.require_int`` and ``records.require_number`` are the only
numeric-argument checks, so each entry point below refuses a missing
value, a bool, a string, a complex number, NaN, infinity and a value
below its minimum with a ``ValueError`` whose message starts with the
name of the field at fault.
"""

import math
import re

import numpy as np
import pytest

from vacuitylab import (
    EvidenceRecord,
    ExpansionSpec,
    PopulationParams,
    RbfFeaturizer,
    ToyTrainConfig,
    TrainingMode,
    append_classes,
    generate_toy_classification,
    init_params,
    predict_alpha,
    remove_class,
)

RECORD = EvidenceRecord("r", "id", ("A", "B"), (1.0, 2.0))
RECORD3 = EvidenceRecord("r", "id", ("A", "B", "C"), (1.0, 2.0, 3.0), gold_label=2)
POINTS = np.array([[0.0, 0.0], [1.0, 2.0]])
FEATURIZER = RbfFeaturizer.for_data(POINTS, grid=2)
IB_PARAMS = init_params(TrainingMode.IB_EDL, 2, FEATURIZER.centers.shape[0])

# field -> (call with the value under test, a valid value, values below the minimum)
ENTRIES = {
    "ExpansionSpec.k_max": (lambda v: ExpansionSpec("ood-only", v), 6, (2,)),
    "ExpansionSpec.appended_evidence": (lambda v: ExpansionSpec("ood-only", 6, v), 0.5, (-1.0,)),
    "generate_toy_classification.n_per_class": (lambda v: generate_toy_classification(v, 4.0, 0), 3, (0,)),
    "generate_toy_classification.separation": (lambda v: generate_toy_classification(3, v, 0), 4.0, (0.0,)),
    "predict_alpha.noise_scale": (lambda v: predict_alpha(IB_PARAMS, FEATURIZER, POINTS, v), 0.5, (-0.5,)),
    "RbfFeaturizer.for_data.grid": (lambda v: RbfFeaturizer.for_data(POINTS, grid=v), 2, (0, 1)),
    "append_classes.count": (lambda v: append_classes(RECORD, v, 0.0), 1, (-1,)),
    "append_classes.appended_evidence": (lambda v: append_classes(RECORD, 1, v), 0.5, (-1.0,)),
    "remove_class.class_index": (lambda v: remove_class(RECORD3, v), 1, (-1,)),
    "PopulationParams.n_id": (lambda v: PopulationParams(n_id=v), 5, (0,)),
    "PopulationParams.scale": (lambda v: PopulationParams(scale=v), 1.0, (0.0,)),
    "ToyTrainConfig.steps": (lambda v: ToyTrainConfig(steps=v), 5, (-1,)),
    "ToyTrainConfig.learning_rate": (lambda v: ToyTrainConfig(learning_rate=v), 0.1, (0.0,)),
}

BAD_VALUES = {"none": None, "bool": True, "text": "1", "complex": 1 + 0j, "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("entry", ENTRIES)
def test_valid_value_is_accepted(entry):
    """Each entry's valid call succeeds, so every refusal below is caused by the bad value."""
    call, good, _ = ENTRIES[entry]
    call(good)


def _bad_cases():
    for entry, (_, _, below) in ENTRIES.items():
        for name, value in [*BAD_VALUES.items(), *((f"below-{v}", v) for v in below)]:
            yield pytest.param(entry, value, id=f"{entry}-{name}")


@pytest.mark.parametrize("entry, value", _bad_cases())
def test_bad_value_is_refused_naming_the_field(entry, value):
    call = ENTRIES[entry][0]
    field = entry.rsplit(".", 1)[1]
    with pytest.raises(ValueError, match=f"^{re.escape(field)} "):
        call(value)


@pytest.mark.parametrize("label", [1.5, True, "1", math.nan], ids=["float", "bool", "text", "nan"])
def test_non_integer_gold_label_is_refused(label):
    """A gold label is an integer index or None; nothing is rounded or read as 0/1."""
    with pytest.raises(ValueError, match=r"^record 'r': gold_label must be an integer, got "):
        EvidenceRecord("r", "id", ("A", "B", "C"), (1.0, 2.0, 3.0), gold_label=label)
    assert EvidenceRecord("r", "id", ("A", "B", "C"), (1.0, 2.0, 3.0), gold_label=None).gold_label is None
