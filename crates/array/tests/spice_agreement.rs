//! Periphery models against circuit simulation, as the paper verifies
//! its analytic driver "by SPICE simulations": the superbuffer's
//! three-stage delay against an inverter chain, and the sense amplifier's
//! `τ·ln(Vdd/ΔV_S)` resolution delay against a latch.

use sram_array::{Periphery, SenseAmp, Superbuffer};
use sram_device::{DeviceLibrary, FinFet, VtFlavor};
use sram_spice::{Circuit, CrossingEdge, DcSolver, Transient, Waveform};
use sram_units::{Capacitance, Time, Voltage};

#[test]
fn analytic_delay_matches_spice_transient() {
    // The paper verifies its analytic superbuffer against SPICE; we do
    // the same: simulate a 4-stage inverter chain with our sized fin
    // counts and compare the measured stage delay to the model.
    let lib = DeviceLibrary::sevennm();
    let p = Periphery::new(&lib);
    let c_load = Capacitance::from_femtofarads(4.0);
    let design = Superbuffer::design(c_load, &p);

    let vdd = 0.45;
    let mut ckt = Circuit::new();
    let n_vdd = ckt.node("vdd");
    ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(vdd));
    let n_in = ckt.node("in");
    ckt.vsource(
        "Vin",
        n_in,
        Circuit::GROUND,
        Waveform::step(
            Voltage::ZERO,
            Voltage::from_volts(vdd),
            Time::from_picoseconds(2.0),
            Time::from_picoseconds(0.5),
        ),
    );
    let mut prev = n_in;
    let mut stage_nodes = Vec::new();
    for (k, &fins) in design.stage_fins().iter().enumerate() {
        let out = ckt.node(&format!("s{k}"));
        ckt.fet(
            &format!("MP{k}"),
            prev,
            out,
            n_vdd,
            FinFet::new(lib.pfet(VtFlavor::Lvt).clone(), fins),
        );
        ckt.fet(
            &format!("MN{k}"),
            prev,
            out,
            Circuit::GROUND,
            FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), fins),
        );
        // Explicit gate load of the next stage (device gates are not
        // modeled as capacitors by the simulator).
        if k < 3 {
            let next_fins = design.stage_fins()[k + 1];
            ckt.capacitor(
                &format!("Cg{k}"),
                out,
                Circuit::GROUND,
                (p.c_inverter_input() * f64::from(next_fins)).farads(),
            );
        } else {
            ckt.capacitor("CL", out, Circuit::GROUND, c_load.farads());
        }
        stage_nodes.push(out);
        prev = out;
    }
    let result = Transient::new(Time::from_picoseconds(40.0), Time::from_picoseconds(0.1))
        .run(&ckt)
        .unwrap();
    let trace = result.trace();
    let half = Voltage::from_volts(vdd / 2.0);
    let t_in = trace
        .crossing(n_in, half, CrossingEdge::Rising, Time::ZERO)
        .unwrap();
    let t_s2 = trace
        .crossing(stage_nodes[2], half, CrossingEdge::Any, t_in)
        .unwrap();
    let spice_three_stages = t_s2 - t_in;
    let model = design.first_three_stage_delay();
    let ratio = spice_three_stages / model;
    assert!(
        ratio > 0.3 && ratio < 3.0,
        "model {model} vs spice {spice_three_stages} (ratio {ratio:.2})"
    );
}

#[test]
fn regeneration_matches_latch_transient() {
    // Cross-validate the ln(Vdd/dV) model against a real latch: a
    // cross-coupled inverter pair preset (via hard pins) to a +/-dV/2
    // imbalance around mid-rail, then released in transient. The time
    // to a 90%-of-Vdd output separation is the simulated resolution
    // delay.
    let lib = DeviceLibrary::sevennm();
    let p = Periphery::new(&lib);
    let delta_vs = Voltage::from_millivolts(120.0);
    let model = SenseAmp::new(&p, delta_vs);

    let vdd = 0.45;
    let mut ckt = Circuit::new();
    let n_vdd = ckt.node("vdd");
    let op = ckt.node("outp");
    let on = ckt.node("outn");
    ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(vdd));
    for (name, input, output) in [("p", on, op), ("n", op, on)] {
        ckt.fet(
            &format!("MP{name}"),
            input,
            output,
            n_vdd,
            FinFet::new(lib.pfet(VtFlavor::Lvt).clone(), 2),
        );
        ckt.fet(
            &format!("MN{name}"),
            input,
            output,
            Circuit::GROUND,
            FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 2),
        );
    }
    // Latch self-load: gates of the opposite side.
    let c_node = (p.c_inverter_input() + p.c_inverter_output()) * 2.0;
    ckt.capacitor("Cp", op, Circuit::GROUND, c_node.farads());
    ckt.capacitor("Cn", on, Circuit::GROUND, c_node.farads());

    let mid = vdd / 2.0;
    let dv = delta_vs.volts() / 2.0;
    let preset = DcSolver::new()
        .nodeset(op, Voltage::from_volts(mid + dv))
        .nodeset(on, Voltage::from_volts(mid - dv))
        .hold_pins();
    let trace = Transient::new(Time::from_picoseconds(20.0), Time::from_picoseconds(0.05))
        .with_initial_solver(preset)
        .run(&ckt)
        .unwrap()
        .into_trace();

    // The seeded side must win and regenerate to the rails.
    assert!(trace.final_voltage(op).volts() > 0.9 * vdd);
    assert!(trace.final_voltage(on).volts() < 0.1 * vdd);
    let t_resolve = (0..trace.len())
        .map(|k| {
            (
                trace.times().nth(k).expect("sample"),
                trace.voltage_at(op, trace.times().nth(k).expect("sample")),
            )
        })
        .find(|(t, _)| {
            (trace.voltage_at(op, *t).volts() - trace.voltage_at(on, *t).volts()) > 0.9 * vdd
        })
        .map(|(t, _)| t)
        .expect("latch resolves");
    let ratio = t_resolve / model.delay();
    assert!(
        ratio > 0.1 && ratio < 10.0,
        "model {} vs simulated {} (x{ratio:.2})",
        model.delay(),
        t_resolve
    );
}
