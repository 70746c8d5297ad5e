//! Comparing the predictor backends (the paper's future-work direction:
//! "moving beyond history-based prediction to computed predictions") on
//! one benchmark: the same LVP unit — LCT and CVU included — with each
//! [`PredictorKind`] in turn as its value table.
//!
//! ```sh
//! cargo run --release --example predictor_kinds -- quick
//! ```

use lvp::isa::AsmProfile;
use lvp::predictor::{presets, LvpUnit, PredictorKind};
use lvp::workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "quick".to_string());
    let workload = Workload::by_name(&name)
        .ok_or_else(|| format!("unknown workload `{name}`; see lvp::workloads::suite()"))?;
    let run = workload.run(AsmProfile::Toc)?;
    println!("{workload}: {} dynamic loads\n", run.trace.stats().loads);

    println!(
        "{:14} {:>9} {:>9} {:>9}",
        "predictor", "accuracy", "correct", "constant"
    );
    for kind in PredictorKind::ALL {
        let mut unit = LvpUnit::new(presets::simple().builder().kind(kind).build());
        unit.annotate(&run.trace);
        let s = unit.stats();
        println!(
            "{:14} {:>8.1}% {:>8.1}% {:>8.1}%",
            kind.as_str(),
            100.0 * s.accuracy(),
            100.0 * s.correct as f64 / s.loads.max(1) as f64,
            100.0 * s.constant_rate()
        );
    }
    Ok(())
}
