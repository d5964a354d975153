//! Reference outputs every run is checked against.
//!
//! * `golden/table4.csv` — the 20-row `reproduce table4` CSV of the
//!   seed commit, with the full-precision EDP (J·s) of each row appended
//!   as `edp_js` (the CSV's own `edp_fj_ps` keeps only 4 decimals).
//! * `golden/sim_stack.json` — the Monte Carlo seeds sim-stack draws
//!   from, and the `outputs` of a default-size seed-1 `sim-stack` run
//!   (per op: rails, coarse 4 KB optimum, Monte Carlo statistics).

use sram_coopt::OptimalDesign;
use sram_serve::Json;

const TABLE4_CSV: &str = include_str!("../golden/table4.csv");
const SIM_STACK_JSON: &str = include_str!("../golden/sim_stack.json");

/// Largest relative EDP difference accepted against the golden table.
const EDP_RTOL: f64 = 1e-9;

/// Seed-1 Monte Carlo statistics must repeat to within this (mV).
const MC_EXACT_MV: f64 = 0.1;

/// With any other seed, each mean must fall within this many standard
/// errors of the seed-1 mean of its `(flavor, method)` pair, and never
/// needs to be closer than [`MC_SEED_MV`]. The write margin's σ is
/// ~24 mV, so a 16-sample mean has a ~6 mV standard error: a fixed
/// 10 mV window would fail about one op in ten by chance alone.
const MC_SEED_ERRORS: f64 = 5.0;

/// The narrowest window (mV) the other-seed check uses.
const MC_SEED_MV: f64 = 10.0;

/// The integer columns compared exactly: `n_r`, `n_c`, `N_pre`,
/// `N_wr`, and the three rails in mV.
const EXACT_COLUMNS: [&str; 7] = [
    "n_r", "n_c", "n_pre", "n_wr", "vddc_mv", "vssc_mv", "vwl_mv",
];

/// One Table-4 row.
#[derive(Debug, Clone)]
pub(crate) struct Table4Row {
    label: String,
    exact: [f64; 7],
    edp_js: f64,
}

/// The 20 golden Table-4 rows, in `optimize_table4` order.
pub(crate) fn table4() -> Result<Vec<Table4Row>, String> {
    let mut lines = TABLE4_CSV.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let column = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or_else(|| format!("golden table4.csv lacks column {name}"))
    };
    let (config, edp) = (column("config")?, column("edp_js")?);
    let exact_at = EXACT_COLUMNS
        .iter()
        .map(|name| column(name))
        .collect::<Result<Vec<_>, _>>()?;
    lines
        .filter(|l| !l.is_empty())
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            let number = |at: usize| {
                cells
                    .get(at)
                    .and_then(|c| c.parse::<f64>().ok())
                    .ok_or_else(|| format!("golden table4 row {line}: bad {}", header[at]))
            };
            let mut exact = [0.0; 7];
            for (slot, &at) in exact.iter_mut().zip(&exact_at) {
                *slot = number(at)?;
            }
            Ok(Table4Row {
                label: cells.get(config).copied().unwrap_or_default().to_owned(),
                exact,
                edp_js: number(edp)?,
            })
        })
        .collect()
}

/// Compares a result's label, integer columns and EDP with `row`.
fn check(label: &str, exact: [f64; 7], edp_js: f64, row: &Table4Row) -> Result<(), String> {
    if label != row.label || exact.map(f64::round) != row.exact {
        return Err(format!(
            "{label} {exact:?} differs from golden {} {:?} ({})",
            row.label,
            row.exact,
            EXACT_COLUMNS.join(", ")
        ));
    }
    let rel = (edp_js - row.edp_js).abs() / row.edp_js.abs();
    if rel > EDP_RTOL {
        return Err(format!(
            "{label}: EDP {edp_js:e} J·s differs from golden {:e} by {rel:.2e} relative",
            row.edp_js
        ));
    }
    Ok(())
}

/// Checks one design returned by the framework against its golden row.
pub(crate) fn check_design(design: &OptimalDesign, row: &Table4Row) -> Result<(), String> {
    let exact = [
        f64::from(design.organization.rows()),
        f64::from(design.organization.cols()),
        f64::from(design.n_pre),
        f64::from(design.n_wr),
        design.vddc.millivolts(),
        design.vssc.millivolts(),
        design.vwl.millivolts(),
    ];
    check(&design.label(), exact, design.edp().joule_seconds(), row)
}

/// Checks an `optimize` result received over the wire against its
/// golden row.
pub(crate) fn check_result(result: &Json, row: &Table4Row) -> Result<(), String> {
    let num = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("optimize result lacks {key}: {}", result.render()))
    };
    let mut exact = [0.0; 7];
    for (slot, key) in exact.iter_mut().zip([
        "rows", "cols", "n_pre", "n_wr", "vddc_mv", "vssc_mv", "vwl_mv",
    ]) {
        *slot = num(key)?;
    }
    let label = result.get("label").and_then(Json::as_str).unwrap_or("?");
    check(label, exact, num("edp_js")?, row)
}

/// The outputs of one sim-stack op.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimOutput {
    /// Rails `(V_DDC, V_WL)` in mV.
    pub(crate) rails_mv: [f64; 2],
    /// Coarse 4 KB optimum: `n_r`, `n_c`, `N_pre`, `N_wr`, `V_SSC` (mV).
    pub(crate) optimum: [f64; 5],
    /// Monte Carlo `(μ, σ)` in mV of HSNM, RSNM and WM.
    pub(crate) mc_mv: [[f64; 2]; 3],
}

impl SimOutput {
    pub(crate) fn to_json(&self) -> Json {
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::Obj(vec![
            ("rails_mv".into(), arr(&self.rails_mv)),
            ("optimum".into(), arr(&self.optimum)),
            (
                "mc_mv".into(),
                Json::Arr(self.mc_mv.iter().map(|m| arr(m)).collect()),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let nums =
            |v: &Json| -> Option<Vec<f64>> { v.as_array()?.iter().map(Json::as_f64).collect() };
        let rails = nums(json.get("rails_mv")?)?;
        let optimum = nums(json.get("optimum")?)?;
        let mc: Vec<Vec<f64>> = json
            .get("mc_mv")?
            .as_array()?
            .iter()
            .map(nums)
            .collect::<Option<_>>()?;
        Some(Self {
            rails_mv: rails.try_into().ok()?,
            optimum: optimum.try_into().ok()?,
            mc_mv: [
                mc.first()?.clone().try_into().ok()?,
                mc.get(1)?.clone().try_into().ok()?,
                mc.get(2)?.clone().try_into().ok()?,
            ],
        })
    }
}

/// The seed-1 sim-stack reference: op `i` runs pair `i % pairs`.
#[derive(Debug, Clone)]
pub(crate) struct SimGolden {
    seed: u64,
    mc_samples: usize,
    mc_seeds: Vec<u64>,
    ops: Vec<SimOutput>,
}

/// Loads `golden/sim_stack.json`.
pub(crate) fn sim_stack() -> Result<SimGolden, String> {
    let json = Json::parse(SIM_STACK_JSON).map_err(|e| format!("golden sim_stack.json: {e}"))?;
    let seed = json
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("golden sim_stack.json lacks seed")?;
    let mc_samples = json
        .get("mc_samples")
        .and_then(Json::as_u64)
        .ok_or("golden sim_stack.json lacks mc_samples")? as usize;
    let mc_seeds: Vec<u64> = json
        .get("mc_seeds")
        .and_then(Json::as_array)
        .and_then(|seeds| seeds.iter().map(Json::as_u64).collect())
        .filter(|seeds: &Vec<u64>| !seeds.is_empty())
        .ok_or("golden sim_stack.json lacks mc_seeds")?;
    let ops = json
        .get("ops")
        .and_then(Json::as_array)
        .ok_or("golden sim_stack.json lacks ops")?
        .iter()
        .map(|op| SimOutput::from_json(op).ok_or("malformed golden sim-stack op"))
        .collect::<Result<_, _>>()?;
    Ok(SimGolden {
        seed,
        mc_samples,
        mc_seeds,
        ops,
    })
}

const MARGINS: [&str; 3] = ["HSNM", "RSNM", "WM"];

impl SimGolden {
    /// The Monte Carlo seed of op `op` of a run with `seed`: drawn from
    /// `mc_seeds`, the seeds whose 16-sample runs converge for all four
    /// pairs (on about 1 varied cell in 500 the write-margin DC solve
    /// does not converge, which fails the whole run).
    pub(crate) fn mc_seed(&self, seed: u64, op: usize) -> u64 {
        let draw = sram_cluster::splitmix64(seed ^ sram_cluster::splitmix64(op as u64));
        self.mc_seeds[(draw % self.mc_seeds.len() as u64) as usize]
    }

    /// Checks op `op` (pair `op % pairs`) of a run with `seed` and
    /// `mc_samples` Monte Carlo samples per op.
    pub(crate) fn check(
        &self,
        seed: u64,
        mc_samples: usize,
        op: usize,
        pairs: usize,
        got: &SimOutput,
    ) -> Result<(), String> {
        let same_pair = || self.ops.iter().skip(op % pairs).step_by(pairs);
        let reference = same_pair()
            .next()
            .ok_or_else(|| format!("golden sim_stack.json has no op for pair {}", op % pairs))?;
        if got.rails_mv.map(f64::round) != reference.rails_mv.map(f64::round) {
            return Err(format!(
                "op {op}: rails {:?} mV, golden {:?}",
                got.rails_mv, reference.rails_mv
            ));
        }
        if got.optimum.map(f64::round) != reference.optimum.map(f64::round) {
            return Err(format!(
                "op {op}: coarse optimum {:?}, golden {:?}",
                got.optimum, reference.optimum
            ));
        }
        let same_run = seed == self.seed && mc_samples == self.mc_samples;
        if let Some(exact) = self.ops.get(op).filter(|_| same_run) {
            for (m, (g, e)) in got.mc_mv.iter().zip(&exact.mc_mv).enumerate() {
                if (g[0] - e[0]).abs() > MC_EXACT_MV || (g[1] - e[1]).abs() > MC_EXACT_MV {
                    return Err(format!(
                        "op {op}: {} μ/σ {g:?} mV, golden {e:?}",
                        MARGINS[m]
                    ));
                }
            }
            return Ok(());
        }
        let count = same_pair().count() as f64;
        for (m, g) in got.mc_mv.iter().enumerate() {
            let mean = same_pair().map(|o| o.mc_mv[m][0]).sum::<f64>() / count;
            let sigma = same_pair().map(|o| o.mc_mv[m][1]).sum::<f64>() / count;
            let tolerance = MC_SEED_MV.max(MC_SEED_ERRORS * sigma / (mc_samples as f64).sqrt());
            if (g[0] - mean).abs() > tolerance {
                return Err(format!(
                    "op {op}: {} μ {:.2} mV is more than {tolerance:.1} mV from the seed-{} mean {mean:.2}",
                    MARGINS[m], g[0], self.seed
                ));
            }
        }
        Ok(())
    }
}
