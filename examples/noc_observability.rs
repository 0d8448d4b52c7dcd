//! Spatial NoC observability tour: run one mapped workload under a full
//! probe and read back everything the flow layer records —
//!
//! * the per-link flit heatmap (rendered as ASCII mesh art) with the
//!   conservation check against the report's link-traversal counter,
//! * exact nearest-rank latency quantiles from the sparse histograms
//!   (no bucket interpolation),
//! * the per-packet latency decomposition `source-queue + in-network +
//!   serialization = latency` aggregated per application, and
//! * per-router stall counters locating *where* contention concentrates.
//!
//! ```text
//! cargo run --release --example noc_observability
//! ```

use obm::prelude::*;

fn main() {
    let (workload, _) = WorkloadBuilder::paper(PaperConfig::C1).build();
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = workload.rate_vectors();
    let inst = ObmInstance::new(tiles, workload.boundaries(), c, m);
    let mapping = SortSelectSwap::default().map(&inst, 0);

    let cfg = SimConfig::builder(mesh)
        .warmup_cycles(2_000)
        .measure_cycles(20_000)
        .seed(11)
        .build()
        .expect("paper defaults are valid");
    let mut sink = RingSink::new(64);
    println!("== simulating 20k cycles of C1 traffic under a spatial probe…");
    let report = Network::new(cfg, traffic_spec(&inst, &mapping))
        .expect("valid scenario")
        .run_with(RunHooks::default().probe(&mut sink))
        .expect("a run without a controller cannot fail");

    let heat = sink
        .heatmaps()
        .next()
        .expect("probed runs always emit a heatmap");
    let flow = sink
        .flow_summaries()
        .next()
        .expect("probed runs always emit a flow summary");

    println!("\nlink heatmap (decile digits, 9 = hottest link, . = idle):");
    print!("{}", heat.ascii_mesh());

    // Conservation: per-link counts sum to the global traversal counter.
    assert_eq!(heat.total_link_flits(), report.network.link_flit_traversals);
    println!(
        "\nlink conservation: {} flit traversals across {} directed links",
        heat.total_link_flits(),
        heat.num_links()
    );
    let hottest = heat
        .links()
        .max_by_key(|l| l.flits)
        .expect("8x8 mesh has links");
    println!(
        "hottest link: tile {} -> tile {} ({} flits)",
        hottest.tile, hottest.to, hottest.flits
    );
    let stalls: u64 = heat.credit_stalls.iter().sum::<u64>() + heat.vc_stalls.iter().sum::<u64>();
    println!("credit + vc-alloc stall cycles across all routers: {stalls}");

    // Exact quantiles and the decomposition, per application.
    println!("\nper-app latency decomposition (measured packets, cycles):");
    println!("  app     packets    mean     p50   p95   p99   max    src-q     net     ser");
    for (i, acc) in flow.groups.iter().enumerate() {
        let q = |q: f64| acc.histogram.quantile(q).unwrap_or(0);
        println!(
            "  App {}  {:>8} {:>7.2} {:>7} {:>5} {:>5} {:>5} {:>8.3} {:>7.2} {:>7.2}",
            i + 1,
            acc.packets,
            acc.histogram.mean(),
            q(0.5),
            q(0.95),
            q(0.99),
            acc.histogram.max().unwrap_or(0),
            acc.mean_source_queue(),
            acc.mean_in_network(),
            acc.mean_serialization(),
        );
    }
    let all = flow.merged();
    println!(
        "\nglobal: mean {:.2} = src-q {:.3} + net {:.2} + ser {:.2} (exact identity per packet)",
        all.histogram.mean(),
        all.mean_source_queue(),
        all.mean_in_network(),
        all.mean_serialization(),
    );
    println!(
        "exact p99 {} vs max {} over {} measured packets",
        all.histogram.quantile(0.99).expect("traffic flowed"),
        all.histogram.max().expect("traffic flowed"),
        all.packets
    );
    println!("\nAt paper loads the in-network (hop-count) term carries the mean while");
    println!("source-queuing stays near zero — the premise of the analytic TC/TM arrays.");
}
