//! Seeded randomized round-trip of the `.msr` format: any net the
//! generators can produce must serialize and re-parse to an electrically
//! identical net, and the parser must never panic on mutated input.

use msrnet_netgen::format::{parse_net_file, write_net_file};
use msrnet_netgen::{table1, ExperimentNet};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};

#[test]
fn generated_nets_roundtrip() {
    let mut meta = SplitMix64::seed_from_u64(40);
    for case in 0..32u64 {
        let seed = meta.gen_range(0..10_000i64) as u64;
        let n = meta.gen_range(2..9usize);
        let subdivide = meta.gen_bool(0.5);
        let params = table1();
        let mut rng = msrnet_rng::rngs::StdRng::seed_from_u64(seed);
        let exp = ExperimentNet::random(&mut rng, n, &params).expect("valid net");
        let net = if subdivide {
            exp.with_insertion_points(1200.0)
        } else {
            exp.net.clone()
        };
        let lib = vec![params.repeater(1.0), params.repeater(3.0)];
        let text = write_net_file(&net, &lib);
        let parsed = parse_net_file(&text).expect("own output parses");
        assert_eq!(parsed.net.topology.vertex_count(), net.topology.vertex_count());
        assert_eq!(parsed.net.topology.edge_count(), net.topology.edge_count());
        assert_eq!(parsed.library.len(), lib.len());
        assert!(
            (parsed.net.total_cap() - net.total_cap()).abs() < 1e-9,
            "electrical identity (case {case})"
        );
        for t in net.terminal_ids() {
            assert_eq!(parsed.net.terminal(t), net.terminal(t));
        }
        for e in net.topology.edges() {
            assert!((parsed.net.topology.length(e) - net.topology.length(e)).abs() < 1e-12);
        }
        // Idempotence: writing the parsed net reproduces the same text.
        let text2 = write_net_file(&parsed.net, &parsed.library);
        assert_eq!(text, text2);
    }
}

#[test]
fn parser_never_panics_on_line_mutations() {
    let mut meta = SplitMix64::seed_from_u64(41);
    for _ in 0..64 {
        let seed = meta.gen_range(0..1000i64) as u64;
        let victim = meta.gen_range(0..40usize);
        // Random printable-ASCII garbage, 0..30 chars.
        let glen = meta.gen_range(0..30usize);
        let garbage: String = (0..glen)
            .map(|_| meta.gen_range(0x20..0x7fi32) as u8 as char)
            .collect();
        let params = table1();
        let mut rng = msrnet_rng::rngs::StdRng::seed_from_u64(seed);
        let exp = ExperimentNet::random(&mut rng, 4, &params).expect("valid net");
        let text = write_net_file(&exp.net, &[params.repeater(1.0)]);
        let mut lines: Vec<&str> = text.lines().collect();
        let g = garbage.as_str();
        if victim < lines.len() {
            lines[victim] = g;
        } else {
            lines.push(g);
        }
        let mutated = lines.join("\n");
        // Must return Ok or Err, never panic.
        let _ = parse_net_file(&mutated);
    }
}
