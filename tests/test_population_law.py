"""The demo's sweep against its closed form: ``simulate``'s Gamma population has an exact AUROC law at every K.

Both configs and the 3-SE bound below were fixed before the test first ran:
the README demo population, and one more ``simulate`` config with another K,
unequal group sizes, a scale other than 1 and a non-zero appended evidence.
A row outside the bound is a failure to report, not a reason to re-choose them.

Run as a script (``PYTHONPATH=src python tests/test_population_law.py``) it
prints the README's "Why the demo climbs" table from the oracle.
"""

import math
from pathlib import Path

import pytest
from scipy import stats

from oracles import gamma_population_auroc
from vacuitylab import (
    ExpansionMode,
    ExpansionSpec,
    Metric,
    PopulationParams,
    generate_evidence_population,
    overlap_population_params,
    run_expansion_experiment,
)

README = Path(__file__).resolve().parent.parent / "README.md"
BOUND_SE = 3.0
CONFIGS = {
    "readme-demo": (overlap_population_params(seed=0), 8, 0.0),
    "k3-scale-half": (
        PopulationParams(
            n_id=400, n_ood=300, k=3, id_correct_shape=4.0, id_wrong_shape=1.0, ood_shape=1.5, scale=0.5, seed=11
        ),
        7,
        0.5,
    ),
}


def hanley_mcneil_se(a: float, n_pos: int, n_neg: int) -> float:
    """Hanley & McNeil's (1982) standard error of an AUROC a over n_pos positives and n_neg negatives."""
    q1, q2 = a / (2.0 - a), 2.0 * a * a / (1.0 + a)
    return math.sqrt((a * (1.0 - a) + (n_pos - 1) * (q1 - a * a) + (n_neg - 1) * (q2 - a * a)) / (n_pos * n_neg))


def sweep_against_law(params: PopulationParams, k_max: int, e: float) -> list[tuple[int, float, float, float]]:
    """(K_OOD, sweep AUROC, law, sweep - law in SE) for each row of the OOD-only sweep of ``params``'s draw."""
    run = run_expansion_experiment(
        *generate_evidence_population(params), ExpansionSpec(ExpansionMode.OOD_ONLY, k_max, e), Metric.VACUITY
    )
    table = []
    for row in run.rows:
        law = gamma_population_auroc(params, row.k_ood - params.k, e)
        se = hanley_mcneil_se(law, row.n_positive, row.n_negative)
        table.append((row.k_ood, row.auroc, law, (row.auroc - law) / se))
    return table


def law_table() -> str:
    """The README's tables: the demo's OOD-only sweep against the law, then the law of its shapes at matched K."""
    lines = ["| K_OOD | sweep AUROC | law | sweep − law, in SE |", "|---|---|---|---|"]
    for k_ood, auroc, law, z in sweep_against_law(*CONFIGS["readme-demo"]):
        lines.append(f"| {k_ood} | {auroc:.6f} | {law:.6f} | {z:+.2f} |")
    lines += ["", "| K_ID = K_OOD | 2 | 4 | 5 | 10 |", "|---|---|---|---|---|"]
    matched = [gamma_population_auroc(overlap_population_params(seed=0, k=k), 0, 0.0) for k in (2, 4, 5, 10)]
    lines.append("| law | " + " | ".join(f"{law:.6f}" for law in matched) + " |")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_ood_only_row_lies_within_three_se_of_the_law(config):
    table = sweep_against_law(*CONFIGS[config])
    assert len(table) == CONFIGS[config][1] - CONFIGS[config][0].k + 1
    assert all(abs(z) <= BOUND_SE for *_, z in table), table


@pytest.mark.parametrize("e", [0.0, 1.0, 2.5])
def test_law_tends_to_the_id_only_ceiling(e):
    """As m grows, every OOD score tends to 1 + e, so the AUROC tends to P(S_id/K > 1 + e)."""
    params = overlap_population_params(seed=0)
    k = params.k
    ceiling = stats.gamma(params.id_correct_shape + (k - 1) * params.id_wrong_shape, scale=params.scale).sf(k * e)
    gaps = [abs(gamma_population_auroc(params, m, e) - ceiling) for m in (10**4, 10**6)]
    assert gaps[1] < 1e-5 and gaps[1] <= gaps[0]


def test_readme_table_is_the_oracles():
    assert law_table() in README.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(law_table(), end="")
