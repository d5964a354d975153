//! 6T SRAM cell netlist builders.
//!
//! The standard 6T cell (paper Fig. 1(a)): two cross-coupled inverters
//! (pull-up PFETs `PU_L`/`PU_R`, pull-down NFETs `PD_L`/`PD_R`) storing
//! `Q`/`QB`, plus two NFET access transistors (`ACC_L`/`ACC_R`) gating the
//! bitlines. All six transistors are **single-fin** for area efficiency —
//! the design point whose degraded margins the assist circuits must
//! recover.
//!
//! Rail connections follow the paper's Fig. 4/Fig. 6: the inverters sit
//! between the switchable `CVDD` (= `V_DDC`) and `CVSS` (= `V_SSC`) rails;
//! the wordline is driven to `V_WL` when asserted.

use crate::AssistVoltages;
use rand::Rng;
use sram_device::{DeviceLibrary, FinFet, VtFlavor, VtSampler};
use sram_spice::{Circuit, NodeId, Waveform};
use sram_units::{Time, Voltage};

/// Node handles of a built cell circuit.
#[derive(Debug, Clone, Copy)]
pub struct CellNodes {
    /// Storage node `Q` (left).
    pub q: NodeId,
    /// Storage node `QB` (right).
    pub qb: NodeId,
    /// Bitline attached to `Q` through `ACC_L`.
    pub bl: NodeId,
    /// Complement bitline attached to `QB` through `ACC_R`.
    pub blb: NodeId,
    /// Wordline (gates of both access transistors).
    pub wl: NodeId,
    /// Cell supply rail `CVDD`.
    pub cvdd: NodeId,
    /// Cell ground rail `CVSS`.
    pub cvss: NodeId,
}

/// Which half-cell a VTC extraction drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VtcHalf {
    /// Inverter `PU_L`/`PD_L` with access `ACC_L` (output `Q`).
    Left,
    /// Inverter `PU_R`/`PD_R` with access `ACC_R` (output `QB`).
    Right,
}

/// Bias condition of a VTC extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VtcMode {
    /// Hold: wordline low, bitlines precharged (HSNM butterfly).
    Hold,
    /// Read: wordline asserted (at `Vdd` — WL overdrive applies to writes
    /// only), bitlines clamped at the precharge level (RSNM butterfly).
    Read,
}

/// The six transistors of a 6T cell.
///
/// # Examples
///
/// ```
/// use sram_cell::Sram6t;
/// use sram_device::{DeviceLibrary, VtFlavor};
///
/// let lib = DeviceLibrary::sevennm();
/// let cell = Sram6t::new(&lib, VtFlavor::Hvt);
/// assert_eq!(cell.flavor(), VtFlavor::Hvt);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sram6t {
    flavor: VtFlavor,
    pu_l: FinFet,
    pd_l: FinFet,
    acc_l: FinFet,
    pu_r: FinFet,
    pd_r: FinFet,
    acc_r: FinFet,
}

impl Sram6t {
    /// Builds a nominal all-single-fin 6T cell of the given flavor from a
    /// device library.
    #[must_use]
    pub fn new(library: &DeviceLibrary, flavor: VtFlavor) -> Self {
        let n = library.nfet(flavor).clone();
        let p = library.pfet(flavor).clone();
        Self {
            flavor,
            pu_l: FinFet::new(p.clone(), 1),
            pd_l: FinFet::new(n.clone(), 1),
            acc_l: FinFet::new(n.clone(), 1),
            pu_r: FinFet::new(p, 1),
            pd_r: FinFet::new(n.clone(), 1),
            acc_r: FinFet::new(n, 1),
        }
    }

    /// Returns a copy with fresh random Vt shifts on all six transistors —
    /// one Monte Carlo sample.
    #[must_use]
    pub fn with_variation<R: Rng>(&self, rng: &mut R) -> Self {
        let mut sampler = VtSampler::new(rng);
        Self {
            flavor: self.flavor,
            pu_l: sampler.perturb(&self.pu_l),
            pd_l: sampler.perturb(&self.pd_l),
            acc_l: sampler.perturb(&self.acc_l),
            pu_r: sampler.perturb(&self.pu_r),
            pd_r: sampler.perturb(&self.pd_r),
            acc_r: sampler.perturb(&self.acc_r),
        }
    }

    /// Threshold flavor of the cell transistors.
    #[must_use]
    pub fn flavor(&self) -> VtFlavor {
        self.flavor
    }

    /// Lumped capacitance loading a storage node: the opposing inverter's
    /// gates plus this side's drains.
    fn storage_node_cap(&self) -> f64 {
        (self.pu_r.c_gate()
            + self.pd_r.c_gate()
            + self.pu_l.c_drain()
            + self.pd_l.c_drain()
            + self.acc_l.c_drain())
        .farads()
    }

    /// Builds the full 6T netlist with all rails as named sources:
    /// `VDDC`, `VSSC`, `VWL`, `VBL`, `VBLB`.
    ///
    /// * `bias` sets the DC rail levels; `wl` selects the wordline
    ///   waveform (e.g. [`Waveform::dc`] of 0 for hold, of `bias.vwl` for
    ///   an asserted WL, or a step for transient writes).
    /// * `bl`/`blb` are the bitline waveforms (precharged to `vdd` for
    ///   hold/read; driven for writes).
    pub fn circuit(
        &self,
        bias: &AssistVoltages,
        wl: Waveform,
        bl: Waveform,
        blb: Waveform,
    ) -> (Circuit, CellNodes) {
        let mut ckt = Circuit::new();
        let q = ckt.node("q");
        let qb = ckt.node("qb");
        let n_bl = ckt.node("bl");
        let n_blb = ckt.node("blb");
        let n_wl = ckt.node("wl");
        let cvdd = ckt.node("cvdd");
        let cvss = ckt.node("cvss");

        ckt.vsource("VDDC", cvdd, Circuit::GROUND, Waveform::dc(bias.vddc));
        ckt.vsource("VSSC", cvss, Circuit::GROUND, Waveform::dc(bias.vssc));
        ckt.vsource("VWL", n_wl, Circuit::GROUND, wl);
        ckt.vsource("VBL", n_bl, Circuit::GROUND, bl);
        ckt.vsource("VBLB", n_blb, Circuit::GROUND, blb);

        // Left inverter: input QB, output Q.
        ckt.fet("PU_L", qb, q, cvdd, self.pu_l.clone());
        ckt.fet("PD_L", qb, q, cvss, self.pd_l.clone());
        // Right inverter: input Q, output QB.
        ckt.fet("PU_R", q, qb, cvdd, self.pu_r.clone());
        ckt.fet("PD_R", q, qb, cvss, self.pd_r.clone());
        // Access transistors (drain on the bitline side).
        ckt.fet("ACC_L", n_wl, n_bl, q, self.acc_l.clone());
        ckt.fet("ACC_R", n_wl, n_blb, qb, self.acc_r.clone());

        // Lumped storage-node capacitances (gate + junction loading).
        ckt.capacitor("CQ", q, Circuit::GROUND, self.storage_node_cap());
        ckt.capacitor("CQB", qb, Circuit::GROUND, self.storage_node_cap());
        // Wordline gate load (both access gates): makes the WL driver's
        // energy observable in transient write-energy integrations.
        ckt.capacitor(
            "CWL",
            n_wl,
            Circuit::GROUND,
            (self.acc_l.c_gate() + self.acc_r.c_gate()).farads(),
        );

        (
            ckt,
            CellNodes {
                q,
                qb,
                bl: n_bl,
                blb: n_blb,
                wl: n_wl,
                cvdd,
                cvss,
            },
        )
    }

    /// Builds the hold-state netlist: WL low, both bitlines precharged to
    /// `vdd` (the array's precharge level, *not* `V_DDC`).
    pub fn hold_circuit(&self, bias: &AssistVoltages, vdd: Voltage) -> (Circuit, CellNodes) {
        self.circuit(
            bias,
            Waveform::dc(Voltage::ZERO),
            Waveform::dc(vdd),
            Waveform::dc(vdd),
        )
    }

    /// Builds the read-access netlist: WL asserted at `vdd` (WL overdrive
    /// is a write assist), both bitlines clamped at the precharge level.
    pub fn read_circuit(&self, bias: &AssistVoltages, vdd: Voltage) -> (Circuit, CellNodes) {
        self.circuit(
            bias,
            Waveform::dc(vdd),
            Waveform::dc(vdd),
            Waveform::dc(vdd),
        )
    }

    /// Builds the DC write netlist for flipping `Q` from 1 to 0: BL driven
    /// to `bias.vbl` (0, or negative with the negative-BL assist), BLB
    /// held at `vdd`, WL at an arbitrary test level `vwl_test` (the
    /// write-margin search starts it at 0 and walks the `VWL` source up
    /// to the fold).
    pub fn write_dc_circuit(
        &self,
        bias: &AssistVoltages,
        vdd: Voltage,
        vwl_test: Voltage,
    ) -> (Circuit, CellNodes) {
        self.circuit(
            bias,
            Waveform::dc(vwl_test),
            Waveform::dc(bias.vbl),
            Waveform::dc(vdd),
        )
    }

    /// Builds the transient write netlist: WL steps from 0 to `bias.vwl`
    /// at `t_start` with rise time `t_rise`; BL pre-driven to `bias.vbl`,
    /// BLB at `vdd`.
    pub fn write_transient_circuit(
        &self,
        bias: &AssistVoltages,
        vdd: Voltage,
        t_start: Time,
        t_rise: Time,
    ) -> (Circuit, CellNodes) {
        self.circuit(
            bias,
            Waveform::step(Voltage::ZERO, bias.vwl, t_start, t_rise),
            Waveform::dc(bias.vbl),
            Waveform::dc(vdd),
        )
    }

    /// Builds a broken-loop voltage-transfer-curve netlist for butterfly
    /// extraction: the selected inverter's input is driven by the source
    /// `VU` at node `u`; its output (`out`) is loaded by the corresponding
    /// access transistor to a bitline clamped at `vdd`.
    ///
    /// Returns `(circuit, input_node, output_node)`.
    pub fn vtc_circuit(
        &self,
        half: VtcHalf,
        mode: VtcMode,
        bias: &AssistVoltages,
        vdd: Voltage,
    ) -> (Circuit, NodeId, NodeId) {
        let (pu, pd, acc) = match half {
            VtcHalf::Left => (&self.pu_l, &self.pd_l, &self.acc_l),
            VtcHalf::Right => (&self.pu_r, &self.pd_r, &self.acc_r),
        };
        let wl_level = match mode {
            VtcMode::Hold => Voltage::ZERO,
            VtcMode::Read => vdd,
        };
        let mut ckt = Circuit::new();
        let u = ckt.node("u");
        let out = ckt.node("out");
        let n_bl = ckt.node("bl");
        let n_wl = ckt.node("wl");
        let cvdd = ckt.node("cvdd");
        let cvss = ckt.node("cvss");

        ckt.vsource("VU", u, Circuit::GROUND, Waveform::dc(bias.vssc));
        ckt.vsource("VDDC", cvdd, Circuit::GROUND, Waveform::dc(bias.vddc));
        ckt.vsource("VSSC", cvss, Circuit::GROUND, Waveform::dc(bias.vssc));
        ckt.vsource("VWL", n_wl, Circuit::GROUND, Waveform::dc(wl_level));
        ckt.vsource("VBL", n_bl, Circuit::GROUND, Waveform::dc(vdd));

        ckt.fet("PU", u, out, cvdd, pu.clone());
        ckt.fet("PD", u, out, cvss, pd.clone());
        ckt.fet("ACC", n_wl, n_bl, out, acc.clone());

        (ckt, u, out)
    }

    /// Whether the left and right halves have equal devices, so that
    /// [`Sram6t::vtc_circuit`] builds the same netlist for both.
    pub(crate) fn halves_match(&self) -> bool {
        self.pu_l == self.pu_r && self.pd_l == self.pd_r && self.acc_l == self.acc_r
    }

    /// Access transistor of one half (used by read-current analysis).
    #[must_use]
    pub fn access(&self, half: VtcHalf) -> &FinFet {
        match half {
            VtcHalf::Left => &self.acc_l,
            VtcHalf::Right => &self.acc_r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sram_spice::DcSolver;

    fn vdd() -> Voltage {
        Voltage::from_millivolts(450.0)
    }

    #[test]
    fn hold_circuit_is_bistable() {
        let lib = DeviceLibrary::sevennm();
        let cell = Sram6t::new(&lib, VtFlavor::Hvt);
        let bias = AssistVoltages::nominal(vdd());
        let (ckt, nodes) = cell.hold_circuit(&bias, vdd());
        ckt.validate().unwrap();

        let zero = DcSolver::new()
            .nodeset(nodes.q, Voltage::ZERO)
            .nodeset(nodes.qb, vdd())
            .solve(&ckt)
            .unwrap();
        assert!(zero.voltage(nodes.q).volts() < 0.05);
        assert!(zero.voltage(nodes.qb).volts() > 0.40);

        let one = DcSolver::new()
            .nodeset(nodes.q, vdd())
            .nodeset(nodes.qb, Voltage::ZERO)
            .solve(&ckt)
            .unwrap();
        assert!(one.voltage(nodes.q).volts() > 0.40);
        assert!(one.voltage(nodes.qb).volts() < 0.05);
    }

    #[test]
    fn boosted_rails_move_storage_levels() {
        let lib = DeviceLibrary::sevennm();
        let cell = Sram6t::new(&lib, VtFlavor::Hvt);
        let bias = AssistVoltages::nominal(vdd())
            .with_vddc(Voltage::from_millivolts(550.0))
            .with_vssc(Voltage::from_millivolts(-240.0));
        let (ckt, nodes) = cell.hold_circuit(&bias, vdd());
        let sol = DcSolver::new()
            .nodeset(nodes.q, Voltage::ZERO)
            .nodeset(nodes.qb, bias.vddc)
            .solve(&ckt)
            .unwrap();
        // Q sits near V_SSC, QB near V_DDC: the negative-Gnd mechanism of
        // Fig. 4 (access transistor sees a larger Vds/Vgs).
        assert!(
            sol.voltage(nodes.q).volts() < -0.15,
            "q = {}",
            sol.voltage(nodes.q)
        );
        assert!(
            sol.voltage(nodes.qb).volts() > 0.50,
            "qb = {}",
            sol.voltage(nodes.qb)
        );
    }

    #[test]
    fn vtc_circuit_inverts() {
        let lib = DeviceLibrary::sevennm();
        let cell = Sram6t::new(&lib, VtFlavor::Lvt);
        let bias = AssistVoltages::nominal(vdd());
        let (mut ckt, _u, out) = cell.vtc_circuit(VtcHalf::Left, VtcMode::Hold, &bias, vdd());
        ckt.set_source_voltage("VU", Voltage::ZERO).unwrap();
        let lo_in = DcSolver::new().solve(&ckt).unwrap();
        ckt.set_source_voltage("VU", vdd()).unwrap();
        let hi_in = DcSolver::new().solve(&ckt).unwrap();
        assert!(lo_in.voltage(out) > hi_in.voltage(out));
    }

    #[test]
    fn read_mode_lifts_vtc_low_level() {
        // With the WL on and BL at Vdd, the access transistor fights the
        // pull-down: the VTC low output level rises — the read-disturb
        // mechanism that degrades RSNM.
        let lib = DeviceLibrary::sevennm();
        let cell = Sram6t::new(&lib, VtFlavor::Hvt);
        let bias = AssistVoltages::nominal(vdd());
        let low_of = |mode| {
            let (mut ckt, _u, out) = cell.vtc_circuit(VtcHalf::Left, mode, &bias, vdd());
            ckt.set_source_voltage("VU", vdd()).unwrap();
            DcSolver::new().solve(&ckt).unwrap().voltage(out)
        };
        let hold_low = low_of(VtcMode::Hold);
        let read_low = low_of(VtcMode::Read);
        assert!(
            read_low.volts() > hold_low.volts() + 0.01,
            "hold {hold_low}, read {read_low}"
        );
    }

    #[test]
    fn variation_changes_all_six_devices() {
        let lib = DeviceLibrary::sevennm();
        let cell = Sram6t::new(&lib, VtFlavor::Hvt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sample = cell.with_variation(&mut rng);
        for (varied, nominal) in [
            (&sample.acc_l, &cell.acc_l),
            (&sample.acc_r, &cell.acc_r),
            (&sample.pd_l, &cell.pd_l),
            (&sample.pd_r, &cell.pd_r),
            (&sample.pu_l, &cell.pu_l),
            (&sample.pu_r, &cell.pu_r),
        ] {
            assert_ne!(varied, nominal);
        }
    }
}
