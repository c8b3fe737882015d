//! Per-probe cost of the word-parallel MRT versus the retained scan.
//!
//! The pipeline-level snapshots (`--profile`) time whole phases, which on
//! noisy machines drowns a per-probe effect in run-to-run drift. This
//! microbenchmark isolates the probe itself: it drives the *same* `Mrt`
//! state through the mask entry point ([`Mrt::conflicts`]) and the scan
//! reference ([`Mrt::conflicts_scan`] — the pre-bitset implementation,
//! kept as the §5d equivalence oracle) in one process, so the two paths
//! see identical cache and frequency conditions and the printed ratio is
//! meaningful even when absolute numbers wobble.
//!
//! Usage: `mrt_microbench [--iters N]` (default 2,000,000 probes per
//! configuration). Wall-clock only; never part of the determinism gates.

use std::hint::black_box;
use std::time::Instant;

use ims_bench::pool::flag_or_exit;
use ims_core::Mrt;
use ims_graph::NodeId;
use ims_ir::Opcode;
use ims_machine::{cydra, Alternative, MachineBuilder, MachineModel, ReservationTable};

/// A synthetic wide machine: `nres` resources, and per opcode a few
/// alternatives whose tables occupy a contiguous band of `band` resources
/// on the issue cycle (VLIW-style issue-slot modeling, the shape where a
/// word-parallel probe collapses `band` cell checks into one AND).
fn banded(nres: u32, band: u32) -> MachineModel {
    let mut b = MachineBuilder::new(format!("banded{nres}x{band}"));
    let res: Vec<_> = (0..nres).map(|i| b.resource(format!("r{i}"))).collect();
    for op in Opcode::ALL {
        let alts: Vec<(String, ReservationTable)> = (0..nres / band)
            .map(|a| {
                let lo = (a * band) as usize;
                let uses = res[lo..lo + band as usize].iter().map(|&r| (r, 0)).collect();
                (format!("slot{a}"), ReservationTable::new(uses))
            })
            .collect();
        b.op_alts(op, 1, alts);
    }
    b.build()
}

const USAGE: &str = "usage: mrt_microbench [--iters N]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters: u64 = flag_or_exit(&args, "--iters", USAGE).unwrap_or(2_000_000);
    // `--iters N` / `--iters=N` is the only argument there is.
    let rest = match args.get(1).map(String::as_str) {
        Some("--iters") => &args[3.min(args.len())..],
        Some(a) if a.starts_with("--iters=") => &args[2..],
        _ => &args[1..],
    };
    if let Some(other) = rest.first() {
        eprintln!("error: unexpected argument {other:?}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    println!("{iters} probes per configuration");
    for m in [cydra(), banded(64, 16)] {
        bench_machine(&m, iters);
    }
}

fn bench_machine(m: &MachineModel, iters: u64) {
    let alts: Vec<&Alternative> = m.opcodes().flat_map(|(_, info)| &info.alternatives).collect();
    let footprint: usize = m
        .opcodes()
        .flat_map(|(_, info)| &info.alternatives)
        .map(|a| a.table.uses().len())
        .max()
        .unwrap_or(0);

    println!(
        "\nmachine `{}`: {} resources, {} alternatives, widest table {} uses",
        m.name(),
        m.num_resources(),
        alts.len(),
        footprint
    );
    println!(
        "{:>4} {:>10} {:>8} {:>14} {:>14} {:>8}",
        "II", "occupancy", "hit%", "scan ns/probe", "mask ns/probe", "speedup"
    );

    for (ii, fill) in [(4i64, 2usize), (8, 3), (16, 12), (32, 24), (16, 128)] {
        let mut mrt = Mrt::new(ii, m.num_resources());
        // Fill the table the way the scheduler would: walk the
        // alternatives round-robin and keep conflict-free placements.
        // Light fills exercise the miss-dominated regime FindTimeSlot
        // lives in (it probes until it finds a *free* slot, and a miss
        // must examine every table use); the heavy fill at the end shows
        // the short-circuiting hit regime.
        let mut node = 0u32;
        for (k, alt) in alts.iter().cycle().take(fill).enumerate() {
            let t = k as i64 % ii;
            if !mrt.conflicts(alt.mask(), t) {
                mrt.place(NodeId(node), alt.mask(), t);
                node += 1;
            }
        }
        let filled = (0..ii)
            .flat_map(|t| (0..m.num_resources()).map(move |r| (t, r)))
            .filter(|&(t, r)| mrt.occupant(t, r).is_some())
            .count();
        let occupancy = filled as f64 / (ii as usize * m.num_resources()) as f64;

        // Identical probe sequence for both paths, precomputed so the
        // timed loop contains nothing but the probe itself.
        let plan: Vec<(usize, i64)> = (0..4096u64)
            .map(|k| ((k % alts.len() as u64) as usize, (k % (2 * ii as u64)) as i64))
            .collect();
        let rounds = iters / plan.len() as u64;
        let total = rounds * plan.len() as u64;
        let probe = |use_mask: bool| {
            let start = Instant::now();
            let mut hits = 0u64;
            for _ in 0..rounds {
                for &(a, t) in &plan {
                    let hit = if use_mask {
                        mrt.conflicts(alts[a].mask(), t)
                    } else {
                        mrt.conflicts_scan(&alts[a].table, t)
                    };
                    hits += black_box(hit) as u64;
                }
            }
            (start.elapsed().as_nanos() as f64 / total as f64, hits)
        };
        // Interleave and keep the faster of two rounds per path, so a
        // scheduler hiccup in one round cannot bias the ratio.
        let (scan_a, h1) = probe(false);
        let (mask_a, h2) = probe(true);
        let (scan_b, h3) = probe(false);
        let (mask_b, h4) = probe(true);
        assert!(h1 == h2 && h2 == h3 && h3 == h4, "paths disagree");
        let scan = scan_a.min(scan_b);
        let mask = mask_a.min(mask_b);
        println!(
            "{:>4} {:>9.0}% {:>7.0}% {:>14.2} {:>14.2} {:>7.2}x",
            ii,
            100.0 * occupancy,
            100.0 * h1 as f64 / total as f64,
            scan,
            mask,
            scan / mask
        );
    }
}
