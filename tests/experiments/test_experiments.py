"""Every reproduced table/figure passes its paper-vs-measured checks.

These are the repository's acceptance tests: each experiment module's
``run()`` re-derives a paper artifact and asserts the claims.  Simulation-
heavy experiments run with reduced cycle counts to stay unit-test fast;
the benchmarks run them at full scale.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    algorithm1_demo,
    cdg_validation,
    chaos_campaign,
    complexity,
    deadlock_demo,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    hamiltonian,
    minimal_channels,
    partial3d_sim,
    perf_sweep,
    table1,
    table2,
    table3,
    table4,
    table5,
    turnmodel_search,
)

FAST_EXPERIMENTS = [
    ("Fig1-2", lambda: __import__("repro.experiments.fig1_fig2", fromlist=["run"]).run()),
    ("Table1", lambda: table1.run()),
    ("Table2", lambda: table2.run()),
    ("Table3", lambda: table3.run()),
    ("Table4", lambda: table4.run()),
    ("Table5", lambda: table5.run()),
    ("Fig3", lambda: fig3.run()),
    ("Fig4", lambda: fig4.run()),
    ("Fig5", lambda: fig5.run()),
    ("Fig6", lambda: fig6.run()),
    ("Fig7", lambda: fig7.run()),
    ("Fig9", lambda: fig9.run()),
    ("Fig10", lambda: fig10.run()),
    ("S2", lambda: complexity.run()),
    ("S4", lambda: minimal_channels.run(max_n=4)),
    ("S5", lambda: algorithm1_demo.run()),
    ("S6.1", lambda: turnmodel_search.run()),
    ("S6.2", lambda: hamiltonian.run()),
    ("V9", lambda: chaos_campaign.run()),
]


@pytest.mark.parametrize("name, run", FAST_EXPERIMENTS, ids=[n for n, _ in FAST_EXPERIMENTS])
def test_fast_experiment_passes(name, run):
    result = run()
    result.require()
    assert result.text
    assert result.report()


def test_fig8_without_maximality_probe():
    result = fig8.run(maximality_probe=False)
    result.require()
    assert result.data["total_turns"] == 140


def test_cdg_validation_reduced():
    cdg_validation.run(derivation_limit=4).require()


def test_deadlock_demo_reduced():
    deadlock_demo.run(cycles=2000).require()


def test_perf_sweep_reduced():
    perf_sweep.run(mesh_size=4, cycles=600, rates=(0.02, 0.06)).require()


def test_partial3d_sim_reduced():
    partial3d_sim.run(cycles=600, rates=(0.02,)).require()


def test_fault_tolerance():
    from repro.experiments import fault_tolerance

    fault_tolerance.run().require()


def test_fault_sweep_reduced():
    from repro.experiments import fault_sweep

    fault_sweep.run(cycles=200).require()


def test_ablation_transitions():
    from repro.experiments import ablation_transitions

    ablation_transitions.run().require()


def test_ablation_selection_reduced():
    from repro.experiments import ablation_selection

    ablation_selection.run(mesh_size=4, cycles=600, rate=0.06).require()


def test_ablation_buffers_reduced():
    from repro.experiments import ablation_buffers

    ablation_buffers.run(mesh_size=4, cycles=800, rates=(0.04, 0.08)).require()


def test_switching_modes_reduced():
    from repro.experiments import switching_modes

    switching_modes.run(mesh_size=4, cycles=800, rate=0.04).require()


def test_torus_case_reduced():
    from repro.experiments import torus_case

    torus_case.run(cycles=600, rate=0.03).require()


def test_fattree_case():
    from repro.experiments import fattree_case

    fattree_case.run(cycles=600, rate=0.06).require()


def test_multicast_case_reduced():
    from repro.experiments import multicast_case

    multicast_case.run(mesh_size=4, groups=3, group_size=4).require()


def test_dragonfly_case_reduced():
    from repro.experiments import dragonfly_case

    dragonfly_case.run(groups=4, cycles=500, rate=0.05).require()


def test_scaling_reduced():
    from repro.experiments import scaling

    scaling.run(radixes=(4, 6, 8)).require()


def test_ablation_depth_reduced():
    from repro.experiments import ablation_depth

    ablation_depth.run(mesh_size=4, cycles=600, depths=(1, 4)).require()


def test_planar_case_reduced():
    from repro.experiments import planar_case

    planar_case.run(cycles=400, rate=0.04).require()


def test_design_space():
    from repro.experiments import design_space

    design_space.run(order_limit=12).require()


def test_telemetry_demo_reduced():
    from repro.experiments import telemetry_demo

    telemetry_demo.run(mesh_size=4, cycles=800).require()


def test_registry_covers_everything():
    assert len(ALL_EXPERIMENTS) == 39
    assert all(callable(f) for f in ALL_EXPERIMENTS.values())


def test_experiment_result_report_shape():
    result = fig4.run()
    report = result.report()
    assert result.exp_id in report
    assert "[PASS]" in report
