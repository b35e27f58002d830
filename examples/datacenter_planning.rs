//! Datacenter planning with the node-hour model (paper §IV-A, Fig 4):
//! "should my HPC center buy matrix engines?"
//!
//! Reproduces the Fig 4 extrapolations for the K computer, ANL, and the
//! fictional 20%-AI future system, then runs the sensitivity analyses the
//! paper's discussion implies: the ME-speedup sweep and the AI-share lever.
//!
//! Run with `cargo run --release --example datacenter_planning`.

use matrix_engines::prelude::*;

fn main() {
    let machines =
        [MachineMix::k_computer_default(), MachineMix::anl_default(), MachineMix::future_default()];

    for m in &machines {
        println!("=== {} ===", m.name);
        println!("{:<18} {:<22} {:>7} {:>13}", "domain", "representative", "share", "accelerable");
        for e in &m.entries {
            println!(
                "{:<18} {:<22} {:>6.1}% {:>12.1}%",
                e.domain,
                e.representative,
                100.0 * e.share,
                100.0 * e.accelerable
            );
        }
        println!("machine-wide accelerable fraction: {:.1}%", 100.0 * m.total_accelerable());
        println!("ME speedup sweep (node-hours saved):");
        for (s, r) in m.sweep(&[1.0, 2.0, 4.0, 8.0, 16.0, 64.0]) {
            let bar = "#".repeat((r * 200.0) as usize);
            println!("  {s:>5.0}x  {:>5.1}%  {bar}", 100.0 * r);
        }
        println!("  inf    {:>5.1}%\n", 100.0 * m.node_hour_reduction(MeSpeedup::Infinite));
    }

    // The AI-share lever of Fig 4c: when does a ME investment break even?
    println!("=== Future-system sensitivity: AI share vs 4x-ME saving ===");
    for ai in [0.0, 0.1, 0.2, 0.3, 0.5, 0.8] {
        let m = MachineMix::future_system(ai, 0.832);
        let r = m.node_hour_reduction(MeSpeedup::Finite(4.0));
        println!("  AI share {:>4.0}% -> {:>5.1}% node-hours saved", 100.0 * ai, 100.0 * r);
    }

    // The paper's ~1.1x science-throughput framing.
    println!("\n=== Science-throughput framing (paper §VII) ===");
    for m in &machines {
        let gain = 1.0 / m.relative_node_hours(MeSpeedup::Finite(4.0));
        println!("  {:14} 4x-ME throughput gain: {gain:.2}x", m.name);
    }
}
