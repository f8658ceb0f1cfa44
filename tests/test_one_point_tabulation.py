"""Every consumer of one point (four for CHSH) tabulates the kernel once.

Each reads its tables from one ``BackwardModel.tabulate``, so the kernel
table is filled exactly once per call, as ``verify`` fills it once per grid.
"""

import pytest

import retrobell.cli as cli
from retrobell import BackwardModel
from retrobell.chsh import STANDARD_BELL_CONFIG, backward_model_chsh
from retrobell.sampling import make_rng, sample_run

#: Each consumer, and the number of points it tabulates.
ONE_POINT = {
    "backward_model_chsh": (lambda m: backward_model_chsh(m, "lambda1", STANDARD_BELL_CONFIG), 4),
    "lc_violation_witness": (lambda m: m.lc_violation_witness("lambda1", (0.3, 1.1), (1, -1)), 1),
    "condition_on_lambda": (lambda m: m.condition_on_lambda("lambda1", (0.3, 1.1)), 1),
    "lambda_marginal": (lambda m: m.lambda_marginal((0.3, 1.1)), 1),
    "assemble_joint": (lambda m: m.assemble_joint((0.3, 1.1)), 1),
    "sample_run": (lambda m: sample_run(m, (0.3, 1.1), make_rng(1)), 1),
}


@pytest.mark.parametrize("name", ONE_POINT)
def test_one_point_consumers_tabulate_the_kernel_once(monkeypatch, name):
    # a new model, so sample_run's held tables miss
    model = cli.MODEL_BUILDERS["bell"]()
    kernels = []
    fill = BackwardModel._fill

    def counted_fill(self, points, table, width):
        if getattr(table, "func", table) is self.kernel.table:  # a collider's: given its targets
            kernels.append(len(points))
        return fill(self, points, table, width)

    monkeypatch.setattr(BackwardModel, "_fill", counted_fill)
    consume, points = ONE_POINT[name]
    consume(model)
    assert kernels == [points]
