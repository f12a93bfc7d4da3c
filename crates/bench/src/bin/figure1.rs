//! Regenerates Figure 1: design decompression index of published designs.
//!
//! Run with: `cargo run -p nanocost-bench --bin figure1`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary's console is its interface, and it may abort on a fatal error"
)]

use nanocost_bench::figures::figure1;
use nanocost_devices::{
    density_time_trend, table_a1, vendor_density_trend, vendor_mean_sd, DeviceClass, Vendor,
};
use nanocost_numeric::Chart;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("figure1.run");
    let (by_class, by_vendor) = figure1()?;
    let mut chart = Chart::new("Figure 1: s_d vs feature size", "λ [µm]", "s_d [λ²/tr]");
    for s in by_class {
        chart.push(s);
    }
    println!("{}", chart.to_table());
    println!("{}", chart.to_ascii(72, 20));

    let mut vendor_chart =
        Chart::new("Figure 1 (vendor view, CPUs only)", "λ [µm]", "s_d [λ²/tr]");
    for s in by_vendor {
        vendor_chart.push(s);
    }
    println!("{}", vendor_chart.to_ascii(72, 20));

    let rows = table_a1();
    for vendor in [Vendor::Intel, Vendor::Amd, Vendor::PowerPcAlliance] {
        let fit = vendor_density_trend(&rows, vendor)?;
        println!(
            "{vendor:<18} s_d trend vs ln(1/λ): slope {:+.1} (R² {:.2}) — {}",
            fit.slope,
            fit.r_squared,
            if fit.slope > 0.0 { "density worsening" } else { "density improving" }
        );
    }
    let time = density_time_trend(&rows, DeviceClass::Cpu)?;
    println!(
        "CPU s_d vs estimated year: {:+.1} λ²/tr per year (R² {:.2}) — the chronological Figure-1 read",
        time.slope, time.r_squared
    );
    let amd = vendor_mean_sd(&rows, Vendor::Amd, 0.25, 0.35)?;
    let intel = vendor_mean_sd(&rows, Vendor::Intel, 0.25, 0.35)?;
    println!();
    println!(
        "0.25-0.35µm era mean logic s_d: AMD {:.0} vs Intel {:.0} — the market follower ships denser, cheaper transistors",
        amd.mean, intel.mean
    );
    Ok(())
}
