//! Table 3 and Equations (2)–(5): the full array delay/energy model.

use crate::components::{self, ComponentInputs, DelayEnergy};
use crate::{
    wire, ArrayError, ArrayOrganization, DecoderModel, Periphery, SenseAmp, Superbuffer,
    TechnologyParams, WireCapacitances,
};
use sram_cell::CellCharacterization;
use sram_units::{Capacitance, Current, Energy, EnergyDelay, Time, Voltage};

/// How per-bitline energies are multiplied up to a full access.
///
/// The paper's Table 3 counts **one** bitline, sense amplifier and
/// precharge per access, although a read senses `W` columns and the
/// asserted wordline disturbs all `n_c` (see EXPERIMENTS.md,
/// inconsistency 3). Both accountings are provided; the choice cancels
/// in the paper's relative comparisons but matters for absolute energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnergyAccounting {
    /// Table 3 verbatim: one bitline/sense-amp/precharge per access.
    #[default]
    PaperTable3,
    /// Realistic: all `n_c` bitlines develop/precharge, `W` sense
    /// amplifiers fire, `W` write buffers drive.
    PerWord,
}

/// Workload and sensing parameters of the evaluation (paper Section 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayParams {
    /// Array activity factor α: probability of an access per cycle (0.5).
    pub activity: f64,
    /// Read ratio β: fraction of accesses that are reads (0.5).
    pub read_ratio: f64,
    /// Sensing voltage `ΔV_S` (120 mV).
    pub delta_vs: Voltage,
    /// Technology constants (wire geometry, DC-DC overhead).
    pub tech: TechnologyParams,
    /// Bitline-energy multiplication policy.
    pub energy_accounting: EnergyAccounting,
}

impl ArrayParams {
    /// The paper's Section 5 values: `α = β = 0.5`, `ΔV_S = 120 mV`,
    /// 7 nm technology constants, Table 3 energy accounting.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            activity: 0.5,
            read_ratio: 0.5,
            delta_vs: Voltage::from_millivolts(120.0),
            tech: TechnologyParams::sevennm(),
            energy_accounting: EnergyAccounting::PaperTable3,
        }
    }

    /// Paper defaults but with realistic per-word energy accounting.
    #[must_use]
    pub fn per_word_accounting() -> Self {
        Self {
            energy_accounting: EnergyAccounting::PerWord,
            ..Self::paper_defaults()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] for probabilities outside
    /// `[0, 1]` or a non-positive sensing voltage.
    pub fn validate(&self) -> Result<(), ArrayError> {
        if !(0.0..=1.0).contains(&self.activity) {
            return Err(ArrayError::InvalidParameter {
                name: "activity",
                constraint: format!("must be in [0, 1], got {}", self.activity),
            });
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err(ArrayError::InvalidParameter {
                name: "read_ratio",
                constraint: format!("must be in [0, 1], got {}", self.read_ratio),
            });
        }
        if self.delta_vs.volts() <= 0.0 {
            return Err(ArrayError::InvalidParameter {
                name: "delta_vs",
                constraint: "sensing voltage must be positive".into(),
            });
        }
        Ok(())
    }
}

impl Default for ArrayParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Read/write delay composition (Fig. 7(d) needs the bitline share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBreakdown {
    /// Row path: decoder + first driver stages + wordline charge.
    pub row_path: Time,
    /// Column path: column decoder + driver + COL line (+ BL write drive
    /// for writes).
    pub column_path: Time,
    /// Bitline develop time (`D_BL,rd`) — the component HVT hurts and
    /// negative Gnd repairs.
    pub bitline: Time,
    /// Sense-amplifier resolution (reads) or cell flip (writes).
    pub resolve: Time,
    /// Precharge recovery.
    pub precharge: Time,
}

impl DelayBreakdown {
    /// Total of this access type per Table 3 (max of row/column paths,
    /// then resolve and precharge in series).
    #[must_use]
    pub fn total(&self) -> Time {
        self.row_path.max(self.column_path) + self.resolve + self.precharge
    }
}

/// Switching-energy composition of one access mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Decoders and drivers (row + column).
    pub addressing: Energy,
    /// Wordline charge/discharge.
    pub wordline: Energy,
    /// Bitline develop/drive plus precharge.
    pub bitline: Energy,
    /// Sense amplifier / cell write.
    pub resolve: Energy,
    /// Assist rails (CVDD + CVSS), including DC-DC overhead.
    pub assist_rails: Energy,
}

impl EnergyBreakdown {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.addressing + self.wordline + self.bitline + self.resolve + self.assist_rails
    }
}

/// Evaluated metrics of one array design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayMetrics {
    /// `D_rd` (Table 3).
    pub read_delay: Time,
    /// `D_wr` (Table 3).
    pub write_delay: Time,
    /// `D_array = max(D_rd, D_wr)` (Eq. 2).
    pub delay: Time,
    /// `E_array,sw` (Eq. 3), before the activity factor.
    pub switching_energy: Energy,
    /// `E_array,leak = M · P_leak,sram · D_array` (Eq. 4).
    pub leakage_energy: Energy,
    /// `E_array = α·E_sw + E_leak` (Eq. 5).
    pub energy: Energy,
    /// Read-delay composition (Fig. 7(d)).
    pub read_breakdown: DelayBreakdown,
    /// Write-delay composition.
    pub write_breakdown: DelayBreakdown,
    /// Read-energy composition.
    pub read_energy_breakdown: EnergyBreakdown,
    /// Write-energy composition.
    pub write_energy_breakdown: EnergyBreakdown,
}

impl ArrayMetrics {
    /// The optimization objective: `E_array × D_array`.
    #[must_use]
    pub fn edp(&self) -> EnergyDelay {
        self.energy * self.delay
    }
}

/// One fully specified array design point, ready to evaluate.
///
/// Construction binds the *architecture* variables (`n_r`/`n_c` in the
/// organization, `N_pre`, `N_wr`), the *circuit* variable `V_SSC`
/// (`V_DDC` and `V_WL` live in the [`CellCharacterization`], pinned to
/// the minimum levels meeting yield — Section 5), and the *device* choice
/// (which cell characterization: LVT or HVT).
#[derive(Debug, Clone)]
pub struct ArrayModel<'a> {
    organization: ArrayOrganization,
    cell: &'a CellCharacterization,
    periphery: &'a Periphery,
    params: &'a ArrayParams,
    n_pre: u32,
    n_wr: u32,
    vssc: Voltage,
}

impl<'a> ArrayModel<'a> {
    /// Creates a design point with `N_pre = N_wr = 1` and `V_SSC = 0`.
    #[must_use]
    pub fn new(
        organization: ArrayOrganization,
        cell: &'a CellCharacterization,
        periphery: &'a Periphery,
        params: &'a ArrayParams,
    ) -> Self {
        Self {
            organization,
            cell,
            periphery,
            params,
            n_pre: 1,
            n_wr: 1,
            vssc: Voltage::ZERO,
        }
    }

    /// Sets the precharger fin count `N_pre`.
    ///
    /// # Panics
    ///
    /// Panics if `fins` is zero.
    #[must_use]
    pub fn with_precharge_fins(mut self, fins: u32) -> Self {
        assert!(fins > 0, "N_pre must be at least 1");
        self.n_pre = fins;
        self
    }

    /// Sets the write-buffer fin count `N_wr`.
    ///
    /// # Panics
    ///
    /// Panics if `fins` is zero.
    #[must_use]
    pub fn with_write_fins(mut self, fins: u32) -> Self {
        assert!(fins > 0, "N_wr must be at least 1");
        self.n_wr = fins;
        self
    }

    /// Sets the negative-Gnd level `V_SSC` (0 disables the assist).
    #[must_use]
    pub fn with_vssc(mut self, vssc: Voltage) -> Self {
        self.vssc = vssc;
        self
    }

    /// The organization under evaluation.
    #[must_use]
    pub fn organization(&self) -> ArrayOrganization {
        self.organization
    }

    /// Prepares the `(organization, V_SSC)` slice this point lies in,
    /// for evaluating many `(N_pre, N_wr)` points at once.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] when the workload
    /// parameters fail validation.
    pub fn slice(&self) -> Result<ArraySlice<'a>, ArrayError> {
        self.params.validate()?;
        let (cell, periphery, params) = (self.cell, self.periphery, self.params);
        let vdd = cell.vdd();
        let vddc = cell.vddc();
        let vwl = cell.vwl();
        let org = &self.organization;

        // Table 1 at N_pre = N_wr = 1; the rows evaluated here read only
        // its fin-independent capacitances (C_CVDD, C_CVSS, C_WL).
        let wires = WireCapacitances::new(org, periphery, &params.tech, 1, 1);
        let inputs = ComponentInputs {
            wires: &wires,
            periphery,
            cell,
            vdd,
            vddc,
            vssc: self.vssc,
            vwl,
            delta_vs: params.delta_vs,
            n_pre: 1,
            n_wr: 1,
        };

        // Table 2 components.
        let cvdd = components::cvdd_rail(&inputs);
        let cvss = components::cvss_rail(&inputs);
        let wl_rd = components::wordline_read(&inputs);
        let wl_wr = components::wordline_write(&inputs);

        // Decoders and drivers.
        let decoder = DecoderModel::new(periphery);
        let row_dec_d = decoder.delay(org.row_address_bits());
        let row_dec_e = decoder.energy(org.row_address_bits());
        let col_bits = org.column_address_bits();
        let (col_dec_d, col_dec_e) = if org.has_column_mux() {
            (decoder.delay(col_bits), decoder.energy(col_bits))
        } else {
            (Time::ZERO, Energy::ZERO)
        };
        let row_drv = Superbuffer::design(wires.wordline, periphery);
        let sense = SenseAmp::new(periphery, params.delta_vs);

        // Cell write: delay from the characterization LUT; energy is the
        // storage-node flip (small, approximated as four inverter loads
        // switching through V_DDC).
        let d_write_sram = cell.write_delay(vwl);
        let e_write_sram = periphery.c_inverter_input() * 4.0 * vddc * vddc;

        // Assist-rail energies carry the DC-DC conversion overhead
        // (Section 5); the overdriven wordline is likewise converter-fed.
        let dcdc = params.tech.dcdc_overhead;
        let assist_rails = (cvdd.energy + cvss.energy) * dcdc;
        let wl_wr_energy = if vwl > vdd {
            wl_wr.energy * dcdc
        } else {
            wl_wr.energy
        };

        Ok(ArraySlice {
            organization: self.organization,
            cell,
            periphery,
            params,
            vssc: self.vssc,
            wires,
            wl_rd,
            wl_wr_energy,
            wl_wr_delay: wl_wr.delay,
            assist_rails,
            row_dec_d,
            row_dec_e,
            col_dec_d,
            col_dec_e,
            row_drv,
            sense,
            d_write_sram,
            e_write_sram,
            i_read: cell.read_current(self.vssc),
        })
    }

    /// Evaluates Table 3 and Eqs. (2)–(5) at this one point.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] when the workload
    /// parameters fail validation.
    pub fn evaluate(&self) -> Result<ArrayMetrics, ArrayError> {
        Ok(self.slice()?.evaluate(self.n_pre, self.n_wr))
    }
}

/// One `(organization, V_SSC)` slice of the design space, prepared for
/// evaluating its `(N_pre, N_wr)` points.
///
/// [`ArrayModel::slice`] validates the parameters and evaluates every
/// term that no fin count reaches: the rail and wordline rows, the
/// decoders, the row superbuffer, the sense amplifier, the cell write
/// and `I_read(V_SSC)`. The `N_wr` terms (`C_COL`, the column-select row
/// and the column superbuffer) are evaluated once per `N_wr`, and only
/// `C_BL`, its four rows and the Table 3 sums once per point.
/// [`ArrayModel::evaluate`] is a slice plus one point, so a
/// [`ArraySlice::sweep`] returns, bit for bit, what it returns at each
/// point.
///
/// [`ArraySlice::bound`] runs the same Table 3 body once on relaxed
/// inputs and returns metrics that no point of a fin box undercuts in
/// any field; [`ArraySlice::sweep_pruned`] uses the same bound per
/// `N_wr` column to skip the columns its caller rules out. Both take the
/// `N_wr` terms as [`SliceColumns`], which read no `V_SSC`: one set
/// serves every slice of an organization.
#[derive(Debug, Clone)]
pub struct ArraySlice<'a> {
    organization: ArrayOrganization,
    cell: &'a CellCharacterization,
    periphery: &'a Periphery,
    params: &'a ArrayParams,
    vssc: Voltage,
    wires: WireCapacitances,
    wl_rd: DelayEnergy,
    wl_wr_delay: Time,
    wl_wr_energy: Energy,
    assist_rails: Energy,
    row_dec_d: Time,
    row_dec_e: Energy,
    col_dec_d: Time,
    col_dec_e: Energy,
    row_drv: Superbuffer,
    sense: SenseAmp,
    d_write_sram: Time,
    e_write_sram: Energy,
    i_read: Current,
}

/// The `N_wr` terms of a slice at a list of `N_wr` values, from
/// [`ArraySlice::columns`]: `C_COL`, the column-select row and the column
/// superbuffer at each value. They read neither `V_SSC` nor `N_pre`, so
/// the slices of one [`ArrayModel`] at other `V_SSC` levels share them.
#[derive(Debug, Clone)]
pub struct SliceColumns {
    organization: ArrayOrganization,
    terms: Vec<ColumnTerms>,
}

/// The `N_wr` terms of a slice.
#[derive(Debug, Clone, Copy)]
struct ColumnTerms {
    n_wr: u32,
    column_select: Capacitance,
    col: DelayEnergy,
    col_drv_d: Time,
    col_drv_e: Energy,
}

impl ArraySlice<'_> {
    /// Evaluates the point (`n_pre`, `n_wr`) of this slice.
    ///
    /// # Panics
    ///
    /// Panics if either fin count is zero.
    #[must_use]
    pub fn evaluate(&self, n_pre: u32, n_wr: u32) -> ArrayMetrics {
        self.point(&self.column(n_wr), n_pre, self.bitline(n_pre, n_wr))
    }

    /// Evaluates every point of `n_pre_values × n_wr_values`, `N_pre`
    /// outer and `N_wr` inner, and hands each to `visit` as
    /// `(n_pre, n_wr, metrics)`. The `N_wr` terms are evaluated once per
    /// `N_wr` value.
    ///
    /// # Panics
    ///
    /// Panics if any fin count is zero.
    pub fn sweep(
        &self,
        n_pre_values: &[u32],
        n_wr_values: &[u32],
        visit: impl FnMut(u32, u32, &ArrayMetrics),
    ) {
        self.sweep_columns(n_pre_values, &self.columns(n_wr_values).terms, visit);
    }

    /// The `N_wr` terms at each of `n_wr_values`, for [`Self::bound`] and
    /// [`Self::sweep_pruned`] on this slice or on a slice of the same
    /// model at another `V_SSC`.
    ///
    /// # Panics
    ///
    /// Panics if any fin count is zero.
    #[must_use]
    pub fn columns(&self, n_wr_values: &[u32]) -> SliceColumns {
        SliceColumns {
            organization: self.organization,
            terms: n_wr_values.iter().map(|&n| self.column(n)).collect(),
        }
    }

    /// [`Self::sweep`] over `n_pre_values × columns`, skipping each `N_wr`
    /// column that `prune` rejects: the column's bound over
    /// `n_pre_values` (see [`Self::bound`]) goes to `prune` first, and a
    /// column it returns `true` for is neither evaluated nor visited. A
    /// column without a bound is always swept. Returns the number of
    /// points skipped.
    ///
    /// # Panics
    ///
    /// Panics if any fin count is zero, or if `columns` belong to another
    /// organization.
    pub fn sweep_pruned(
        &self,
        n_pre_values: &[u32],
        columns: &SliceColumns,
        mut prune: impl FnMut(&ArrayMetrics) -> bool,
        visit: impl FnMut(u32, u32, &ArrayMetrics),
    ) -> usize {
        let terms = self.terms(columns);
        let kept: Vec<ColumnTerms> = terms
            .iter()
            .filter(|&column| {
                !self
                    .relaxed(n_pre_values, std::slice::from_ref(column))
                    .is_some_and(|bound| prune(&bound))
            })
            .copied()
            .collect();
        self.sweep_columns(n_pre_values, &kept, visit);
        (terms.len() - kept.len()) * n_pre_values.len()
    }

    /// A lower bound on every point of `n_pre_values × columns`, field by
    /// field: no point's metrics are below it in any field, bit for bit.
    /// It is the one Table 3 body evaluated on relaxed inputs: `C_BL` at
    /// the smallest `N_pre` and `N_wr`, the precharge and write-driver
    /// currents at the largest, and each column term (`C_COL`'s row and
    /// the column superbuffer's delay and energy) at its minimum over the
    /// `N_wr` values.
    ///
    /// Every operation of that body is a sum, a `max`, or a product or
    /// quotient of non-negative quantities, so each field grows with
    /// `C_BL` and the column terms and shrinks with the currents.
    /// IEEE-754 rounding to nearest is monotone and Rust contracts
    /// nothing into fused multiply-adds, so the computed bound keeps the
    /// order the exact one has, without an epsilon. The argument needs
    /// `I_read(V_SSC)`, `I_ON,PFET`, `I_ON,TG`, `C_dn`, `C_dp`, `Vdd`,
    /// `V_DDC − V_SSC`, `ΔV_S` and the cell leakage to be positive and
    /// finite; when one is not, or the box is empty, there is no bound
    /// (`None`).
    ///
    /// # Panics
    ///
    /// Panics if `n_pre_values` holds only zeros, or if `columns` belong
    /// to another organization.
    #[must_use]
    pub fn bound(&self, n_pre_values: &[u32], columns: &SliceColumns) -> Option<ArrayMetrics> {
        self.relaxed(n_pre_values, self.terms(columns))
    }

    /// The terms of `columns`, which must be this organization's.
    fn terms<'c>(&self, columns: &'c SliceColumns) -> &'c [ColumnTerms] {
        assert_eq!(
            columns.organization, self.organization,
            "N_wr columns of another organization"
        );
        &columns.terms
    }

    /// Visits `n_pre_values × columns`, `N_pre` outer.
    fn sweep_columns(
        &self,
        n_pre_values: &[u32],
        columns: &[ColumnTerms],
        mut visit: impl FnMut(u32, u32, &ArrayMetrics),
    ) {
        for &n_pre in n_pre_values {
            for col in columns {
                visit(
                    n_pre,
                    col.n_wr,
                    &self.point(col, n_pre, self.bitline(n_pre, col.n_wr)),
                );
            }
        }
    }

    /// The Table 3 body at the box corner [`Self::bound`] describes.
    fn relaxed(&self, n_pre_values: &[u32], columns: &[ColumnTerms]) -> Option<ArrayMetrics> {
        if !self.bound_holds() {
            return None;
        }
        let (&first, rest) = columns.split_first()?;
        let n_pre_min = *n_pre_values.iter().min()?;
        let n_pre_max = *n_pre_values.iter().max()?;
        let n_wr_min = columns.iter().map(|c| c.n_wr).min()?;
        let corner = rest.iter().fold(first, |acc, c| ColumnTerms {
            n_wr: acc.n_wr.max(c.n_wr),
            column_select: acc.column_select.min(c.column_select),
            col: DelayEnergy {
                delay: acc.col.delay.min(c.col.delay),
                energy: acc.col.energy.min(c.col.energy),
            },
            col_drv_d: acc.col_drv_d.min(c.col_drv_d),
            col_drv_e: acc.col_drv_e.min(c.col_drv_e),
        });
        Some(self.point(&corner, n_pre_max, self.bitline(n_pre_min, n_wr_min)))
    }

    /// Whether [`Self::bound`]'s monotonicity argument holds here: every
    /// input whose sign it reads is positive and finite.
    fn bound_holds(&self) -> bool {
        let (cell, periphery) = (self.cell, self.periphery);
        [
            self.i_read.amps(),
            periphery.ion_pfet().amps(),
            periphery.ion_tg().amps(),
            periphery.cdn().farads(),
            periphery.cdp().farads(),
            cell.vdd().volts(),
            (cell.vddc() - self.vssc).volts(),
            self.params.delta_vs.volts(),
            cell.leakage().watts(),
        ]
        .into_iter()
        .all(|x| x > 0.0 && x.is_finite())
    }

    /// `C_BL` at (`n_pre`, `n_wr`).
    fn bitline(&self, n_pre: u32, n_wr: u32) -> Capacitance {
        wire::bitline(
            &self.organization,
            self.periphery,
            &self.params.tech,
            n_pre,
            n_wr,
        )
    }

    fn inputs<'w>(
        &'w self,
        wires: &'w WireCapacitances,
        n_pre: u32,
        n_wr: u32,
    ) -> ComponentInputs<'w> {
        ComponentInputs {
            wires,
            periphery: self.periphery,
            cell: self.cell,
            vdd: self.cell.vdd(),
            vddc: self.cell.vddc(),
            vssc: self.vssc,
            vwl: self.cell.vwl(),
            delta_vs: self.params.delta_vs,
            n_pre,
            n_wr,
        }
    }

    /// `C_COL`, the column-select row and the column superbuffer at
    /// `n_wr`; the column-select row reads no `C_BL` or `N_pre`.
    fn column(&self, n_wr: u32) -> ColumnTerms {
        assert!(n_wr > 0, "N_wr must be at least 1");
        let org = &self.organization;
        let column_select = wire::column_select(org, self.periphery, &self.params.tech, n_wr);
        let wires = WireCapacitances {
            column_select,
            ..self.wires
        };
        let col = components::column_select(&self.inputs(&wires, 1, n_wr));
        let (col_drv_d, col_drv_e) = if org.has_column_mux() {
            let drv = Superbuffer::design(column_select, self.periphery);
            (
                drv.first_three_stage_delay(),
                drv.first_three_stage_energy(),
            )
        } else {
            (Time::ZERO, Energy::ZERO)
        };
        ColumnTerms {
            n_wr,
            column_select,
            col,
            col_drv_d,
            col_drv_e,
        }
    }

    /// The one Table 3 / Eqs. (2)–(5) body: `n_pre` and `column.n_wr`
    /// set the precharge and write-driver currents, `c_bl` is `C_BL`.
    fn point(&self, column: &ColumnTerms, n_pre: u32, c_bl: Capacitance) -> ArrayMetrics {
        assert!(n_pre > 0, "N_pre must be at least 1");
        let org = &self.organization;
        let (n_wr, col) = (column.n_wr, column.col);
        let wires = WireCapacitances {
            column_select: column.column_select,
            bitline: c_bl,
            ..self.wires
        };
        let inputs = self.inputs(&wires, n_pre, n_wr);
        let bl_rd = components::bitline_read_with(&inputs, self.i_read);
        let bl_wr = components::bitline_write(&inputs);
        let pre_rd = components::precharge_read(&inputs);
        let pre_wr = components::precharge_write(&inputs);

        // Table 3: delays.
        let read_breakdown = DelayBreakdown {
            row_path: self.row_dec_d
                + self.row_drv.first_three_stage_delay()
                + self.wl_rd.delay
                + bl_rd.delay,
            column_path: self.col_dec_d + column.col_drv_d + col.delay,
            bitline: bl_rd.delay,
            resolve: self.sense.delay(),
            precharge: pre_rd.delay,
        };
        let write_breakdown = DelayBreakdown {
            row_path: self.row_dec_d + self.row_drv.first_three_stage_delay() + self.wl_wr_delay,
            column_path: self.col_dec_d + column.col_drv_d + col.delay + bl_wr.delay,
            bitline: bl_wr.delay,
            resolve: self.d_write_sram,
            precharge: pre_wr.delay,
        };
        let read_delay = read_breakdown.total();
        let write_delay = write_breakdown.total();
        let delay = read_delay.max(write_delay);

        // Table 3: switching energies. Under per-word accounting, the
        // bitline/precharge terms scale by the number of columns the
        // asserted wordline touches and the resolve terms by the word
        // width; the paper's Table 3 counts each once.
        let (bl_columns, resolve_units, wr_columns) = match self.params.energy_accounting {
            EnergyAccounting::PaperTable3 => (1.0, 1.0, 1.0),
            EnergyAccounting::PerWord => (
                f64::from(org.cols()),
                f64::from(org.word_bits()),
                f64::from(org.word_bits()),
            ),
        };
        let read_energy_breakdown = EnergyBreakdown {
            addressing: self.row_dec_e
                + self.row_drv.first_three_stage_energy()
                + self.col_dec_e
                + column.col_drv_e,
            wordline: self.wl_rd.energy,
            bitline: (bl_rd.energy + pre_rd.energy) * bl_columns + col.energy,
            resolve: self.sense.energy() * resolve_units,
            assist_rails: self.assist_rails,
        };
        let write_energy_breakdown = EnergyBreakdown {
            addressing: self.row_dec_e
                + self.row_drv.first_three_stage_energy()
                + self.col_dec_e
                + column.col_drv_e,
            wordline: self.wl_wr_energy,
            bitline: bl_wr.energy * wr_columns + pre_wr.energy * bl_columns + col.energy,
            resolve: self.e_write_sram * resolve_units,
            assist_rails: Energy::ZERO,
        };
        let e_sw_rd = read_energy_breakdown.total();
        let e_sw_wr = write_energy_breakdown.total();

        // Equations (2)-(5).
        let beta = self.params.read_ratio;
        let switching_energy = e_sw_rd * beta + e_sw_wr * (1.0 - beta);
        let m = org.capacity().bits() as f64;
        let leakage_energy = self.cell.leakage() * m * delay;
        let energy = switching_energy * self.params.activity + leakage_energy;

        ArrayMetrics {
            read_delay,
            write_delay,
            delay,
            switching_energy,
            leakage_energy,
            energy,
            read_breakdown,
            write_breakdown,
            read_energy_breakdown,
            write_energy_breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::{DeviceLibrary, VtFlavor};

    struct Fixture {
        hvt: CellCharacterization,
        lvt: CellCharacterization,
        periphery: Periphery,
        params: ArrayParams,
    }

    fn fixture() -> Fixture {
        let lib = DeviceLibrary::sevennm();
        Fixture {
            hvt: CellCharacterization::paper_hvt(lib.nominal_vdd()),
            lvt: CellCharacterization::paper_lvt(lib.nominal_vdd()),
            periphery: Periphery::new(&lib),
            params: ArrayParams::paper_defaults(),
        }
    }

    fn org(rows: u32, cols: u32) -> ArrayOrganization {
        ArrayOrganization::new(rows, cols, 64).unwrap()
    }

    #[test]
    fn metrics_are_physical() {
        let fx = fixture();
        let m = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(12)
            .with_write_fins(2)
            .evaluate()
            .unwrap();
        assert!(m.delay.picoseconds() > 1.0 && m.delay.nanoseconds() < 10.0);
        assert!(m.energy.joules() > 0.0);
        assert!(m.read_delay <= m.delay && m.write_delay <= m.delay);
        assert_eq!(m.delay, m.read_delay.max(m.write_delay));
    }

    #[test]
    fn negative_gnd_reduces_read_delay() {
        let fx = fixture();
        let base = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(12)
            .evaluate()
            .unwrap();
        let assisted = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(12)
            .with_vssc(Voltage::from_millivolts(-240.0))
            .evaluate()
            .unwrap();
        assert!(assisted.read_breakdown.bitline < base.read_breakdown.bitline * 0.5);
        assert!(assisted.read_delay < base.read_delay);
        // ... at an energy cost on the assist rails:
        assert!(
            assisted.read_energy_breakdown.assist_rails > base.read_energy_breakdown.assist_rails
        );
    }

    #[test]
    fn hvt_leaks_less_but_reads_slower() {
        let fx = fixture();
        let build = |cell| {
            ArrayModel::new(org(512, 64), cell, &fx.periphery, &fx.params)
                .with_precharge_fins(20)
                .evaluate()
                .unwrap()
        };
        let hvt = build(&fx.hvt);
        let lvt = build(&fx.lvt);
        assert!(hvt.leakage_energy < lvt.leakage_energy * 0.2);
        assert!(hvt.read_breakdown.bitline > lvt.read_breakdown.bitline);
    }

    #[test]
    fn more_rows_slow_the_bitline() {
        let fx = fixture();
        let build = |o| {
            ArrayModel::new(o, &fx.hvt, &fx.periphery, &fx.params)
                .with_precharge_fins(10)
                .evaluate()
                .unwrap()
        };
        let short = build(org(64, 128));
        let tall = build(org(512, 64));
        assert!(tall.read_breakdown.bitline > short.read_breakdown.bitline);
    }

    #[test]
    fn leakage_energy_scales_with_capacity() {
        let fx = fixture();
        let build = |o| {
            ArrayModel::new(o, &fx.lvt, &fx.periphery, &fx.params)
                .evaluate()
                .unwrap()
        };
        let small = build(org(64, 64));
        let large = build(org(512, 256));
        // 32x the bits and a larger delay: strictly more leakage energy.
        assert!(large.leakage_energy > small.leakage_energy * 32.0);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let fx = fixture();
        let mut params = fx.params;
        params.activity = 1.5;
        let err = ArrayModel::new(org(64, 64), &fx.hvt, &fx.periphery, &params)
            .evaluate()
            .unwrap_err();
        assert!(matches!(err, ArrayError::InvalidParameter { .. }));
    }

    #[test]
    fn edp_composes() {
        let fx = fixture();
        let m = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .evaluate()
            .unwrap();
        let edp = m.edp();
        assert!((edp / m.delay - m.energy).joules().abs() < 1e-25);
    }

    #[test]
    #[should_panic(expected = "N_pre")]
    fn zero_precharge_fins_panics() {
        let fx = fixture();
        let _ = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(0);
    }

    #[test]
    fn per_word_accounting_raises_energy_not_delay() {
        let fx = fixture();
        let per_word = ArrayParams::per_word_accounting();
        let paper = ArrayModel::new(org(128, 128), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(10)
            .evaluate()
            .unwrap();
        let realistic = ArrayModel::new(org(128, 128), &fx.hvt, &fx.periphery, &per_word)
            .with_precharge_fins(10)
            .evaluate()
            .unwrap();
        assert!(realistic.switching_energy > paper.switching_energy * 5.0);
        assert_eq!(realistic.delay, paper.delay);
        assert_eq!(realistic.read_delay, paper.read_delay);
    }

    #[test]
    fn per_word_accounting_multiplies_bitline_energy_by_columns() {
        // On a mux-free organization (n_c = W) the per-word bitline
        // energy is exactly n_c times the Table 3 single-bitline figure.
        let fx = fixture();
        let per_word = ArrayParams::per_word_accounting();
        let eval = |p: &ArrayParams| {
            ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, p)
                .with_precharge_fins(10)
                .evaluate()
                .unwrap()
        };
        let paper = eval(&fx.params);
        let word = eval(&per_word);
        let ratio = word.read_energy_breakdown.bitline / paper.read_energy_breakdown.bitline;
        assert!((ratio - 64.0).abs() < 1e-9, "bitline ratio = {ratio}");
        let sa_ratio = word.read_energy_breakdown.resolve / paper.read_energy_breakdown.resolve;
        assert!(
            (sa_ratio - 64.0).abs() < 1e-9,
            "sense-amp ratio = {sa_ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "N_wr")]
    fn zero_write_fins_panic_in_a_slice() {
        let fx = fixture();
        let slice = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .slice()
            .unwrap();
        let _ = slice.evaluate(1, 0);
    }

    #[test]
    fn a_slice_without_positive_inputs_has_no_bound_and_prunes_nothing() {
        let fx = fixture();
        let (n_pre, n_wr) = ([1, 20, 50], [1, 10, 20]);
        let model = ArrayModel::new(org(256, 256), &fx.hvt, &fx.periphery, &fx.params);
        let healthy = model.slice().unwrap();
        assert!(healthy.bound(&n_pre, &healthy.columns(&n_wr)).is_some());
        let leaky_cell = fx
            .hvt
            .clone()
            .with_leakage(sram_units::Power::from_watts(f64::NAN));
        let leaky = ArrayModel::new(org(256, 256), &leaky_cell, &fx.periphery, &fx.params);
        let mut slices = vec![leaky.slice().unwrap()];
        for i_read in [0.0, -1e-6, f64::NAN] {
            let mut slice = model.slice().unwrap();
            slice.i_read = Current::from_amps(i_read);
            slices.push(slice);
        }
        for slice in slices {
            let columns = slice.columns(&n_wr);
            assert!(
                slice.bound(&n_pre, &columns).is_none(),
                "{:?}",
                slice.i_read
            );
            let mut visited = 0;
            let skipped = slice.sweep_pruned(&n_pre, &columns, |_| true, |_, _, _| visited += 1);
            assert_eq!((skipped, visited), (0, 9), "{:?}", slice.i_read);
        }
    }

    #[test]
    #[should_panic(expected = "another organization")]
    fn columns_of_another_organization_are_refused() {
        let fx = fixture();
        let slice = |o| {
            ArrayModel::new(o, &fx.hvt, &fx.periphery, &fx.params)
                .slice()
                .unwrap()
        };
        let columns = slice(org(128, 64)).columns(&[1, 2]);
        let _ = slice(org(64, 128)).bound(&[1], &columns);
    }

    /// The slice-equivalence grid: organizations without a mux and with
    /// one, three cells (the last at `V_WL = Vdd`, so its write wordline
    /// is not converter-fed), three `V_SSC` levels and both accountings.
    struct Grid {
        periphery: Periphery,
        cells: [CellCharacterization; 3],
        params: [ArrayParams; 2],
    }

    const GRID_NPRE: [u32; 3] = [1, 7, 50];
    const GRID_NWR: [u32; 3] = [1, 5, 20];

    impl Grid {
        fn new() -> Self {
            let lib = DeviceLibrary::sevennm();
            let vdd = lib.nominal_vdd();
            Self {
                periphery: Periphery::new(&lib),
                cells: [
                    CellCharacterization::paper_lvt(vdd),
                    CellCharacterization::paper_hvt(vdd),
                    CellCharacterization::paper_with_rails(
                        VtFlavor::Hvt,
                        vdd,
                        Voltage::from_millivolts(550.0),
                        vdd,
                    ),
                ],
                params: [
                    ArrayParams::paper_defaults(),
                    ArrayParams::per_word_accounting(),
                ],
            }
        }

        /// One model per `(organization, cell, accounting, V_SSC)` slice.
        fn slices(&self) -> Vec<ArrayModel<'_>> {
            let mut out = Vec::new();
            for o in [org(128, 64), org(128, 256), org(1024, 128)] {
                for cell in &self.cells {
                    for params in &self.params {
                        for mv in [0.0, -120.0, -240.0] {
                            out.push(
                                ArrayModel::new(o, cell, &self.periphery, params)
                                    .with_vssc(Voltage::from_millivolts(mv)),
                            );
                        }
                    }
                }
            }
            out
        }
    }

    #[test]
    fn one_slice_sweep_matches_fresh_points() {
        let grid = Grid::new();
        for model in grid.slices() {
            let slice = model.slice().unwrap();
            let mut visited = Vec::new();
            slice.sweep(&GRID_NPRE, &GRID_NWR, |n_pre, n_wr, metrics| {
                let fresh = model
                    .clone()
                    .with_precharge_fins(n_pre)
                    .with_write_fins(n_wr)
                    .evaluate()
                    .unwrap();
                assert_eq!(*metrics, fresh, "{model:?} at N_pre={n_pre} N_wr={n_wr}");
                assert_eq!(slice.evaluate(n_pre, n_wr), fresh);
                visited.push((n_pre, n_wr));
            });
            let expected: Vec<(u32, u32)> = GRID_NPRE
                .iter()
                .flat_map(|&p| GRID_NWR.iter().map(move |&w| (p, w)))
                .collect();
            assert_eq!(visited, expected, "N_pre outer, N_wr inner");
        }
    }

    /// Table 3 and Eqs. (2)-(5) composed from scratch at one point, from
    /// the Table 1/2 pieces alone: the reference the slice's hoisted terms
    /// must reproduce bit for bit.
    fn from_scratch(model: &ArrayModel<'_>) -> ArrayMetrics {
        fn bitline_read(inp: &ComponentInputs<'_>) -> DelayEnergy {
            components::bitline_read_with(inp, inp.cell.read_current(inp.vssc))
        }
        let (cell, periphery, params) = (model.cell, model.periphery, model.params);
        let org = &model.organization;
        let (vdd, vddc, vwl) = (cell.vdd(), cell.vddc(), cell.vwl());
        let wires = WireCapacitances::new(org, periphery, &params.tech, model.n_pre, model.n_wr);
        let inputs = ComponentInputs {
            wires: &wires,
            periphery,
            cell,
            vdd,
            vddc,
            vssc: model.vssc,
            vwl,
            delta_vs: params.delta_vs,
            n_pre: model.n_pre,
            n_wr: model.n_wr,
        };
        let [cvdd, cvss, wl_rd, wl_wr, col, bl_rd, bl_wr, pre_rd, pre_wr] = [
            components::cvdd_rail,
            components::cvss_rail,
            components::wordline_read,
            components::wordline_write,
            components::column_select,
            bitline_read,
            components::bitline_write,
            components::precharge_read,
            components::precharge_write,
        ]
        .map(|row| row(&inputs));

        let decoder = DecoderModel::new(periphery);
        let row_bits = org.row_address_bits();
        let col_bits = org.column_address_bits();
        let mux = org.has_column_mux();
        let col_dec_d = if mux {
            decoder.delay(col_bits)
        } else {
            Time::ZERO
        };
        let col_dec_e = if mux {
            decoder.energy(col_bits)
        } else {
            Energy::ZERO
        };
        let row_drv = Superbuffer::design(wires.wordline, periphery);
        let col_drv = Superbuffer::design(wires.column_select, periphery);
        let col_drv_d = if mux {
            col_drv.first_three_stage_delay()
        } else {
            Time::ZERO
        };
        let col_drv_e = if mux {
            col_drv.first_three_stage_energy()
        } else {
            Energy::ZERO
        };
        let sense = SenseAmp::new(periphery, params.delta_vs);
        let row_d = decoder.delay(row_bits) + row_drv.first_three_stage_delay();
        let addressing =
            decoder.energy(row_bits) + row_drv.first_three_stage_energy() + col_dec_e + col_drv_e;

        let read_breakdown = DelayBreakdown {
            row_path: row_d + wl_rd.delay + bl_rd.delay,
            column_path: col_dec_d + col_drv_d + col.delay,
            bitline: bl_rd.delay,
            resolve: sense.delay(),
            precharge: pre_rd.delay,
        };
        let write_breakdown = DelayBreakdown {
            row_path: row_d + wl_wr.delay,
            column_path: col_dec_d + col_drv_d + col.delay + bl_wr.delay,
            bitline: bl_wr.delay,
            resolve: cell.write_delay(vwl),
            precharge: pre_wr.delay,
        };
        let dcdc = params.tech.dcdc_overhead;
        let (bl_columns, resolve_units) = match params.energy_accounting {
            EnergyAccounting::PaperTable3 => (1.0, 1.0),
            EnergyAccounting::PerWord => (f64::from(org.cols()), f64::from(org.word_bits())),
        };
        let read_energy_breakdown = EnergyBreakdown {
            addressing,
            wordline: wl_rd.energy,
            bitline: (bl_rd.energy + pre_rd.energy) * bl_columns + col.energy,
            resolve: sense.energy() * resolve_units,
            assist_rails: (cvdd.energy + cvss.energy) * dcdc,
        };
        let write_energy_breakdown = EnergyBreakdown {
            addressing,
            wordline: if vwl > vdd {
                wl_wr.energy * dcdc
            } else {
                wl_wr.energy
            },
            bitline: bl_wr.energy * resolve_units + pre_wr.energy * bl_columns + col.energy,
            resolve: periphery.c_inverter_input() * 4.0 * vddc * vddc * resolve_units,
            assist_rails: Energy::ZERO,
        };

        let read_delay = read_breakdown.total();
        let write_delay = write_breakdown.total();
        let delay = read_delay.max(write_delay);
        let beta = params.read_ratio;
        let switching_energy =
            read_energy_breakdown.total() * beta + write_energy_breakdown.total() * (1.0 - beta);
        let bits = org.capacity().bits() as f64;
        let leakage_energy = cell.leakage() * bits * delay;
        ArrayMetrics {
            read_delay,
            write_delay,
            delay,
            switching_energy,
            leakage_energy,
            energy: switching_energy * params.activity + leakage_energy,
            read_breakdown,
            write_breakdown,
            read_energy_breakdown,
            write_energy_breakdown,
        }
    }

    #[test]
    fn every_breakdown_field_matches_a_from_scratch_composition() {
        let grid = Grid::new();
        for model in grid.slices() {
            for n_pre in GRID_NPRE {
                for n_wr in GRID_NWR {
                    let point = model
                        .clone()
                        .with_precharge_fins(n_pre)
                        .with_write_fins(n_wr);
                    assert_eq!(point.evaluate().unwrap(), from_scratch(&point), "{point:?}");
                }
            }
        }
    }
}
