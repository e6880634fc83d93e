"""Tables 1 and 2: the hardware parameter sets used in the evaluation.

Not a measurement — this bench renders the two parameter columns the paper
publishes (the "Simulation" configuration used for Figs 5, 8, 9, 10 and
the "Near-term" configuration used for Fig 11) straight from
:mod:`repro.hardware.parameters`, so the record in ``benchmarks/results``
always reflects the code.  The unit tests assert the values against the
paper; here we additionally derive the headline quantities the models
produce from them.
"""

import math

from repro.analysis import render_table
from repro.hardware import (
    HeraldedConnection,
    NEAR_TERM,
    SIMULATION,
    SingleClickModel,
)

from figutils import write_result


def _gate_rows():
    rows = []
    for label, value_sim, value_near in (
        ("electron 1-qubit gate fidelity",
         SIMULATION.gates.electron_single_qubit_fidelity,
         NEAR_TERM.gates.electron_single_qubit_fidelity),
        ("two-qubit gate fidelity",
         SIMULATION.gates.two_qubit_gate_fidelity,
         NEAR_TERM.gates.two_qubit_gate_fidelity),
        ("two-qubit gate duration (µs)",
         SIMULATION.gates.two_qubit_gate_duration / 1e3,
         NEAR_TERM.gates.two_qubit_gate_duration / 1e3),
        ("electron init fidelity",
         SIMULATION.gates.electron_init_fidelity,
         NEAR_TERM.gates.electron_init_fidelity),
        ("carbon init fidelity", "—", NEAR_TERM.gates.carbon_init_fidelity),
        ("electron readout F0",
         SIMULATION.gates.electron_readout_fidelity0,
         NEAR_TERM.gates.electron_readout_fidelity0),
        ("electron readout F1",
         SIMULATION.gates.electron_readout_fidelity1,
         NEAR_TERM.gates.electron_readout_fidelity1),
    ):
        rows.append([label, value_sim, value_near])
    return rows


def _other_rows():
    return [
        ["electron T2* (s)", SIMULATION.electron_t2 / 1e9,
         NEAR_TERM.electron_t2 / 1e9],
        ["carbon T2* (s)", "—", NEAR_TERM.carbon_t2 / 1e9],
        ["Δφ (degrees)", round(math.degrees(SIMULATION.delta_phi), 1),
         round(math.degrees(NEAR_TERM.delta_phi), 1)],
        ["p_double_excitation", SIMULATION.p_double_excitation,
         NEAR_TERM.p_double_excitation],
        ["p_zero_phonon", SIMULATION.p_zero_phonon, NEAR_TERM.p_zero_phonon],
        ["collection efficiency", SIMULATION.collection_efficiency,
         NEAR_TERM.collection_efficiency],
        ["p_detection", SIMULATION.p_detection, NEAR_TERM.p_detection],
        ["visibility", SIMULATION.visibility, NEAR_TERM.visibility],
        ["comm qubits per link", SIMULATION.comm_qubits_per_link,
         NEAR_TERM.comm_qubits_per_link],
    ]


def test_tables_1_and_2_parameters():
    gate_table = render_table(["parameter", "simulation", "near-term"],
                              _gate_rows(),
                              title="Table 1 — quantum gate parameters")
    other_table = render_table(["parameter", "simulation", "near-term"],
                               _other_rows(),
                               title="Table 2 — other hardware parameters")

    lab = SingleClickModel(SIMULATION, HeraldedConnection.lab(0.002))
    near = SingleClickModel(NEAR_TERM, HeraldedConnection.telecom(25.0))
    derived = render_table(
        ["derived quantity", "simulation (2 m)", "near-term (25 km)"],
        [
            ["attempt cycle (µs)", round(lab.cycle_time / 1e3, 2),
             round(near.cycle_time / 1e3, 2)],
            ["mean pair time @F=0.8 (ms)",
             round(lab.expected_pair_time(
                 lab.alpha_for_fidelity(0.8)) / 1e6, 2),
             round(near.expected_pair_time(
                 near.alpha_for_fidelity(0.8)) / 1e6, 2)],
            ["fidelity ceiling",
             round(max(lab.fidelity(a) for a in
                       (0.001, 0.005, 0.02, 0.05)), 4),
             round(max(near.fidelity(a) for a in
                       (0.001, 0.005, 0.02, 0.05, 0.1)), 4)],
        ],
        title="Derived link quantities (model outputs)")
    text = "\n\n".join([gate_table, other_table, derived])
    write_result("tables_1_2_parameters", text)
    assert "0.998" in text and "0.992" in text
