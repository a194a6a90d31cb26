"""Experiment modules: one per figure/table of the paper's §5.

Each module's ``run`` is an :class:`~repro.runtime.Experiment`: its
``cells`` list the independent runs as ``RunSpec`` cells (a Scenario's
JSON and a module-level cell function) and its ``reduce`` shapes their
results into the figure's rows.  The benchmarks (``benchmarks/``) call
``run`` and print the rows via :mod:`repro.experiments.report`.

:data:`EXPERIMENTS` is the one list of them.  Entries are import paths
(resolved like a ``RunSpec``'s ``fn``, by :func:`repro.runtime.resolve`),
so importing this package imports no experiment module — only the run it
starts does.
"""

from .common import ACDC, ALL_SCHEMES, CUBIC, DCTCP, Scheme

#: CLI name -> ``"module:function"``, in the paper's order.
EXPERIMENTS = {
    name: f"{__name__}.{ref}" for name, ref in (
        ("fig01", "fig01_heterogeneous_unfairness:run"),
        ("fig02", "fig02_rate_limiting_insufficient:run"),
        ("fig06", "fig06_rwnd_vs_cwnd_clamp:run"),
        ("fig08", "fig08_dumbbell_rtt:run"),
        ("parking-lot", "parking_lot_results:run"),
        ("fig09", "fig09_window_tracking:run"),
        ("fig10", "fig10_limiting_window:run"),
        ("fig11-12", "fig11_12_cpu_overhead:run"),
        ("fig13", "fig13_qos_beta:run"),
        ("table1", "table1_cc_variants:run"),
        ("fig14", "fig14_convergence:run"),
        ("fig15-16", "fig15_16_ecn_coexistence:run"),
        ("fig17", "fig17_fairness_mixed_cc:run"),
        ("fig18-19", "fig18_19_incast:run"),
        ("fig20", "fig20_all_ports_congested:run"),
        ("fig21", "fig21_concurrent_stride:run"),
        ("fig22", "fig22_shuffle:run"),
        ("fig23", "fig23_trace_driven:run"),
        ("hybrid", "hybrid:run"),
        ("int-attribution", "int_attribution:run"),
        ("chaos", "chaos:run"),
        ("adversarial", "adversarial:run"),
        ("gameday", "gameday:run"),
        ("ablation-policing", "ablations:run_policing"),
        ("ablation-feedback", "ablations:run_feedback_modes"),
        ("ablation-ecn-hiding", "ablations:run_ecn_hiding"),
        ("ablation-floor", "ablations:run_window_floor"),
    )
}

__all__ = ["ACDC", "ALL_SCHEMES", "CUBIC", "DCTCP", "EXPERIMENTS", "Scheme"]
