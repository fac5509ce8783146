//! Regenerates Fig. 4 (P100) / Fig. 5 (V100): double-precision GFLOPS of
//! COGENT, the NWChem-like code generator and the TAL_SH-like TTGT engine
//! on all 48 TCCG benchmarks, followed by the paper's headline geometric
//! means. COGENT's generation times go to stderr, so the table on stdout
//! is a pure function of the code.
//!
//! Usage: `cargo run -p cogent-bench --bin fig4_5 -- --device v100`

use cogent_bench::{fmt_gflops, geomean, parse_device, quick_mode, run_fig45_entry};
use cogent_tccg::{suite, BenchGroup};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let device = parse_device(&args);
    // Per-benchmark pipeline traces land next to the printed table as
    // JSON lines (results/fig4_5_traces.jsonl).
    cogent_obs::set_enabled(true);
    let entries = suite();
    let entries: Vec<_> = if quick_mode(&args) {
        entries.into_iter().step_by(6).collect()
    } else {
        entries
    };

    println!(
        "TCCG benchmark, FP64, on {} — simulated GFLOPS (higher is better)",
        device
    );
    println!(
        "{:>3} {:<8} {:<9} {:<22} {:>9} {:>9} {:>9}",
        "#", "name", "group", "contraction", "COGENT", "NWChem", "TAL_SH"
    );

    let mut rows = Vec::new();
    for entry in &entries {
        let row = run_fig45_entry(entry, &device);
        println!(
            "{:>3} {:<8} {:<9} {:<22} {} {} {}",
            entry.id,
            entry.name,
            entry.group.to_string(),
            entry.spec,
            fmt_gflops(&row.cogent),
            fmt_gflops(&row.nwchem),
            fmt_gflops(&row.talsh),
        );
        eprintln!("{}: generated in {:.3} s", entry.name, row.generation_s);
        rows.push(row);
    }

    let summarize = |label: &str, filter: &dyn Fn(&BenchGroup) -> bool| {
        let cg: Vec<f64> = rows
            .iter()
            .filter(|r| filter(&r.entry.group))
            .map(|r| r.cogent.gflops)
            .collect();
        if cg.is_empty() {
            return;
        }
        let nw: Vec<f64> = rows
            .iter()
            .filter(|r| filter(&r.entry.group))
            .map(|r| r.nwchem.gflops)
            .collect();
        let ts: Vec<f64> = rows
            .iter()
            .filter(|r| filter(&r.entry.group))
            .map(|r| r.talsh.gflops)
            .collect();
        println!(
            "  {label:<12} geomean GFLOPS: COGENT {:8.1}  NWChem {:8.1}  TAL_SH {:8.1}   speedup vs NWChem {:4.2}x, vs TAL_SH {:4.2}x",
            geomean(&cg),
            geomean(&nw),
            geomean(&ts),
            geomean(&cg) / geomean(&nw),
            geomean(&cg) / geomean(&ts),
        );
    };

    println!("\nSummary ({}):", device.name);
    summarize("all 48", &|_| true);
    summarize("ML", &|g| *g == BenchGroup::MachineLearning);
    summarize("AO-MO", &|g| *g == BenchGroup::AoToMo);
    summarize("CCSD", &|g| *g == BenchGroup::Ccsd);
    summarize("CCSD(T)", &|g| *g == BenchGroup::CcsdT);

    let max_nw = rows
        .iter()
        .map(|r| r.cogent.gflops / r.nwchem.gflops)
        .fold(0.0f64, f64::max);
    let max_ts = rows
        .iter()
        .map(|r| r.cogent.gflops / r.talsh.gflops)
        .fold(0.0f64, f64::max);
    println!("  max speedup: vs NWChem {max_nw:.1}x, vs TAL_SH {max_ts:.1}x");
    eprintln!(
        "total COGENT generation time for {} benchmarks: {:.2} s",
        rows.len(),
        rows.iter().map(|r| r.generation_s).sum::<f64>()
    );

    let trace_path = std::path::Path::new("results/fig4_5_traces.jsonl");
    match cogent_bench::write_trace_jsonl(trace_path) {
        Ok(n) if n > 0 => eprintln!("wrote {n} pipeline traces to {}", trace_path.display()),
        Ok(_) => {}
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
}
