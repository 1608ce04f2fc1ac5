"""The public API, pinned: every name binomcap exports and the signature,
defaults included, of each one.  A change here is a change to every caller,
so it has to be made on purpose, in this table."""

import inspect

import binomcap

# name -> str(inspect.signature(...)); None for the exception class
API = {
    "ChannelSpec": "(n: 'int') -> None",
    "DiscreteInput": "(points: 'np.ndarray', weights: 'np.ndarray') -> None",
    "OutputPmf": "(probs: 'np.ndarray', n: 'int' = -1) -> None",
    "UndefinedPosteriorError": None,
    "BAResult":
        "(weights: 'np.ndarray', capacity_low: 'float', capacity_high: 'float', "
        "iterations: 'int', converged: 'bool') -> None",
    "KktSummary":
        "(n: 'int', capacity_nats: 'float', kkt_slack: 'float', equality_defect: 'float', "
        "symmetry_defect: 'float', active_set: 'list', flags: 'dict', "
        "grid_points: 'int') -> None",
    "SolveReport":
        "(n: 'int', capacity_nats: 'float', kkt_slack: 'float', equality_defect: 'float', "
        "symmetry_defect: 'float', active_set: 'list', flags: 'dict', grid_points: 'int', "
        "input: 'DiscreteInput', output: 'OutputPmf', iterations: 'int', "
        "converged: 'bool') -> None",
    "SolverConfig": "(kkt_tol: 'float' = 1e-08, max_outer_iters: 'int' = 200) -> None",
    "BoundsReport":
        "(n: 'int', cap_lower: 'float', cap_upper: 'float', card_lower: 'float', "
        "card_upper: 'int', witsenhausen: 'int') -> None",
    "ExactSolution":
        "(n: 'int', capacity_nats: 'float', capacity_exp: 'Fraction', "
        "input: 'DiscreteInput', output: 'OutputPmf', weights_exact: 'tuple', "
        "points_exact: 'tuple') -> None",
    "DensityCurve":
        "(grid: 'np.ndarray', values: 'np.ndarray', d1: 'np.ndarray', d2: 'np.ndarray') -> None",
    "binary_entropy": "(x: 'float') -> 'float'",
    "binomial_entropy_exact": "(spec: 'ChannelSpec', x: 'float') -> 'float'",
    "binomial_entropy_lower": "(spec: 'ChannelSpec', x: 'float') -> 'float'",
    "binomial_entropy_upper": "(spec: 'ChannelSpec', x: 'float') -> 'float'",
    "log_pmf": "(spec: 'ChannelSpec', y: 'int', x: 'float') -> 'float'",
    "pmf_row": "(spec: 'ChannelSpec', x: 'float') -> 'np.ndarray'",
    "channel_matrix_logdet": "(spec: 'ChannelSpec', support) -> 'tuple[int, float]'",
    "induce_output": "(dist: 'DiscreteInput', spec: 'ChannelSpec') -> 'OutputPmf'",
    "info_density": "(x, out: 'OutputPmf', spec: 'ChannelSpec')",
    "kl_divergence": "(p, q) -> 'float'",
    "mutual_information": "(dist: 'DiscreteInput', spec: 'ChannelSpec') -> 'float'",
    "posterior_mean": "(dist: 'DiscreteInput', spec: 'ChannelSpec', y: 'int') -> 'float'",
    "bregman_binomial": "(x: 'float', xhat: 'float') -> 'float'",
    "cardinality_upper_via_second_derivative":
        "(dist: 'DiscreteInput', spec: 'ChannelSpec', grid_size: 'int' = 10001) -> 'int'",
    "count_sign_changes": "(values) -> 'int'",
    "density_curve":
        "(dist: 'DiscreteInput', spec: 'ChannelSpec', grid_size: 'int' = 1001) -> 'DensityCurve'",
    "info_density_prime": "(x, dist: 'DiscreteInput', spec: 'ChannelSpec')",
    "info_density_second": "(x, dist: 'DiscreteInput', spec: 'ChannelSpec')",
    "blahut_arimoto":
        "(spec: 'ChannelSpec', grid, tol: 'float', max_iters: 'int' = 200000) -> 'BAResult'",
    "kkt_verify":
        "(report: 'SolveReport', spec: 'ChannelSpec', tol: 'float' = 1e-08) -> 'KktSummary'",
    "report_for_distribution":
        "(dist: 'DiscreteInput', spec: 'ChannelSpec', tol: 'float' = 1e-08) -> 'SolveReport'",
    "solve_capacity":
        "(spec: 'ChannelSpec', config: 'SolverConfig | None' = None) -> 'SolveReport'",
    "sweep_capacity": "(n_max: 'int', config: 'SolverConfig | None' = None)",
    "bounds_report": "(n: 'int', capacity_nats: 'float | None' = None) -> 'BoundsReport'",
    "capacity_lower_bound": "(n: 'int') -> 'float'",
    "capacity_upper_bound": "(n: 'int') -> 'float'",
    "cardinality_bounds": "(n: 'int', capacity_nats: 'float') -> 'tuple[float, int]'",
    "crest_factor": "(report, x_star: 'float') -> 'float'",
    "crest_factor_lower_endpoints": "(n: 'int', x: 'float') -> 'float'",
    "crest_factor_lower_mirror": "(n: 'int', x: 'float') -> 'float'",
    "dual_bound_term": "(x, n: 'int')",
    "dual_bound_term_max": "(n: 'int') -> 'float'",
    "support_count_identity": "(report) -> 'float'",
    "brute_force_grid_capacity":
        "(spec: 'ChannelSpec', grid_points: 'int', tol: 'float', "
        "max_iters: 'int' = 2000000) -> 'float'",
    "exact_solution": "(n: 'int') -> 'ExactSolution'",
}


def test_exported_names():
    assert binomcap.__all__ == list(API)


def test_signatures():
    for name, signature in API.items():
        obj = getattr(binomcap, name)
        if signature is None:
            assert issubclass(obj, ValueError), name
        else:
            assert str(inspect.signature(obj)) == signature, name


def test_certificate_tolerance_is_the_solver_default():
    for fn in (binomcap.kkt_verify, binomcap.report_for_distribution):
        assert inspect.signature(fn).parameters["tol"].default == binomcap.SolverConfig.kkt_tol
