//! Roofline report: where each Table-II application's dominant kernel sits
//! on each machine's roofline — the back-of-envelope analysis the paper's
//! motivation section appeals to ("peak flop/s, memory bandwidth, and cache
//! sizes are easy to obtain"), next to what the full simulator says.
//!
//! Run with: `cargo run --release --example roofline_report`

use mphpc_archsim::machine::table1_machines;
use mphpc_archsim::roofline::{arithmetic_intensity, classify, Bound};
use mphpc_workloads::all_apps;

fn main() {
    println!("machine rooflines (node-level, fp64):");
    for m in table1_machines() {
        let cpu = m.cpu_roofline();
        print!(
            "  {:<8} CPU: {:>6.1} GF/s peak, {:>5.0} GB/s, ridge {:>5.2} F/B",
            m.id.name(),
            cpu.peak_flops / 1e9,
            cpu.mem_bw / 1e9,
            cpu.ridge_point()
        );
        match m.gpu_roofline() {
            Some(g) => println!(
                "   GPU: {:>7.1} GF/s peak, {:>6.0} GB/s, ridge {:>5.2} F/B",
                g.peak_flops / 1e9,
                g.mem_bw / 1e9,
                g.ridge_point()
            ),
            None => println!(),
        }
    }

    println!("\nper-application dominant kernel, classified on each machine's CPU roofline:");
    println!(
        "{:<14} {:<16} {:>8}   Quartz / Ruby / Lassen / Corona",
        "application", "dominant kernel", "AI (F/B)"
    );
    let machines = table1_machines();
    for app in all_apps() {
        let input = &app.inputs()[2]; // baseline size
        let demands = app.demands(input);
        // Dominant = most instructions × iterations, ignoring startup/IO.
        let dominant = demands
            .iter()
            .filter(|d| d.name != "init" && d.name != "python_init")
            .max_by(|a, b| {
                (a.instructions * a.iterations as f64)
                    .total_cmp(&(b.instructions * b.iterations as f64))
            })
            .expect("every app has a compute kernel");
        let ai = arithmetic_intensity(dominant, 38e6);
        let marks: Vec<&str> = machines
            .iter()
            .map(|m| match classify(dominant, m) {
                Bound::Compute => "compute",
                Bound::Memory => "memory",
            })
            .collect();
        println!(
            "{:<14} {:<16} {:>8.3}   {}",
            app.name(),
            dominant.name,
            ai,
            marks.join(" / ")
        );
    }
    println!("\nreading: most HPC kernels sit left of every ridge point (memory bound), the DL");
    println!("apps' dense fp32 layers are the exceptions — matching the usual roofline folklore.");
}
