"""Coreset selection for weighted kernel classifiers with certified
worst-case validation error under bounded covariate-shift weight
perturbations."""

from .bound import (BoundReport, QuadraticGapForm, certificate, certify,
                    maximize_on_ball, quadratic_form, radius, spectral_step,
                    worst_case_accuracy)
from .data import (Dataset, SplitPlan, cv_split, gaussian_task, parse_libsvm,
                   shift_radius, to_libsvm)
from .erm import (HINGE, LOGISTIC, Model, conjugate_eval, decision_scores,
                  loss_eval, train)
from .experiment import (ExperimentConfig, RunReport,
                         evaluate_worst_case_accuracy, lambda_cv,
                         run_experiment)
from .kernel import bandwidth_heuristic, gram
from .select import (SelectionTrace, baseline_select, greedy_exact,
                     greedy_fixed_w, greedy_oneshot)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "QuadraticGapForm", "certificate", "certify",
    "maximize_on_ball", "quadratic_form", "radius", "spectral_step",
    "worst_case_accuracy",
    "Dataset", "SplitPlan", "cv_split", "gaussian_task",
    "parse_libsvm", "shift_radius", "to_libsvm",
    "HINGE", "LOGISTIC", "Model", "conjugate_eval", "decision_scores",
    "loss_eval", "train",
    "ExperimentConfig", "RunReport", "evaluate_worst_case_accuracy",
    "lambda_cv", "run_experiment",
    "bandwidth_heuristic", "gram",
    "SelectionTrace", "baseline_select", "greedy_exact", "greedy_fixed_w",
    "greedy_oneshot",
]
