//! Markdown report generation: one document summarizing a net, its
//! timing profile, and the optimized cost-vs-ARD frontier — everything a
//! designer would want from one run.

use msrnet_core::ard::{ard_profile, ArdProfile};
use msrnet_core::{optimize, MsriOptions, TerminalOptions, TradeoffCurve};
use msrnet_netgen::format::NetFile;
use msrnet_rctree::{Assignment, TerminalId};

/// Options controlling [`make_report`].
#[derive(Clone, Debug)]
pub struct ReportOptions {
    /// Root terminal for the optimizer.
    pub root: TerminalId,
    /// Optional timing spec (ps) to answer in the report.
    pub spec: Option<f64>,
    /// Cost charged per terminal driver.
    pub driver_cost: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            root: TerminalId(0),
            spec: None,
            driver_cost: 0.0,
        }
    }
}

/// Builds a Markdown report for a parsed net file: statistics, the
/// unoptimized timing profile (worst in/out per terminal and the delay
/// matrix), the optimized trade-off frontier with its knee, and the
/// answer to the spec if one is given.
///
/// # Errors
///
/// Propagates optimizer errors as strings (e.g. non-leaf terminals).
pub fn make_report(nf: &NetFile, opts: &ReportOptions) -> Result<String, String> {
    let net = &nf.net;
    let mut out = String::new();
    out.push_str("# msrnet report\n\n");
    out.push_str("## Net\n\n```text\n");
    out.push_str(&format!("{}\n", net.stats()));
    out.push_str("```\n\n");

    // Unoptimized profile.
    let rooted = net.rooted_at_terminal(opts.root);
    let empty = Assignment::empty(net.topology.vertex_count());
    let profile = ard_profile(net, &rooted, &nf.library, &empty);
    out.push_str("## Unoptimized timing (Elmore, no repeaters)\n\n");
    if profile.ard == f64::NEG_INFINITY {
        out.push_str("No distinct source/sink pair — the ARD is undefined.\n\n");
        return Ok(out);
    }
    let (cu, cw) = profile.critical.expect("finite ARD");
    out.push_str(&format!(
        "ARD **{:.1} ps**, critical path **{cu} → {cw}**.\n\n",
        profile.ard
    ));
    out.push_str(&profile_table(net, &profile));

    // Optimization.
    let term_opts = TerminalOptions::defaults_with_cost(net, opts.driver_cost);
    let options = MsriOptions {
        allow_inverting: nf.library.iter().any(|r| r.inverting),
        ..MsriOptions::default()
    };
    let curve = optimize(net, opts.root, &nf.library, &term_opts, &options)
        .map_err(|e| e.to_string())?;
    out.push_str("## Optimal repeater insertion\n\n");
    out.push_str(&curve_table(&curve));
    let knee = curve.knee();
    out.push_str(&format!(
        "\nKnee of the frontier: cost **{:.1}** for ARD **{:.1} ps** \
         ({} repeaters) — {:.0}% of the unoptimized diameter.\n",
        knee.cost,
        knee.ard,
        knee.assignment.placed_count(),
        100.0 * knee.ard / profile.ard
    ));
    if let Some(spec) = opts.spec {
        out.push_str(&format!("\n## Spec: ARD ≤ {spec:.0} ps\n\n"));
        match curve.min_cost_meeting(spec) {
            None => out.push_str(&format!(
                "**Unachievable** — the best reachable ARD is {:.1} ps.\n",
                curve.best_ard().ard
            )),
            Some(p) => {
                out.push_str(&format!(
                    "Cheapest solution: cost **{:.1}**, ARD **{:.1} ps**, \
                     {} repeaters:\n\n",
                    p.cost,
                    p.ard,
                    p.assignment.placed_count()
                ));
                for (v, placed) in p.assignment.placements() {
                    let pos = net.topology.position(v);
                    out.push_str(&format!(
                        "* `{}` at {} ({:.0}, {:.0}), oriented {}\n",
                        nf.library[placed.repeater].name,
                        nf.names.get(v.0).map(String::as_str).unwrap_or("?"),
                        pos.x,
                        pos.y,
                        placed.orientation
                    ));
                }
            }
        }
    }
    Ok(out)
}

fn profile_table(net: &msrnet_rctree::Net, profile: &ArdProfile) -> String {
    let mut s = String::from("| terminal | worst as source (ps) | worst as sink (ps) |\n");
    s.push_str("|---|---|---|\n");
    for t in net.terminal_ids() {
        let fmt = |v: f64| {
            if v == f64::NEG_INFINITY {
                "—".to_owned()
            } else {
                format!("{v:.1}")
            }
        };
        s.push_str(&format!(
            "| t{} | {} | {} |\n",
            t.0,
            fmt(profile.worst_from(t)),
            fmt(profile.worst_into(t))
        ));
    }
    s.push('\n');
    s
}

fn curve_table(curve: &TradeoffCurve) -> String {
    let mut s = String::from("| cost | ARD (ps) | repeaters |\n|---|---|---|\n");
    for p in curve.points() {
        s.push_str(&format!(
            "| {:.1} | {:.1} | {} |\n",
            p.cost,
            p.ard,
            p.assignment.placed_count()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_netgen::format::parse_net_file;

    const SAMPLE: &str = "\
tech 0.03 0.00035
terminal t0 0 0 arrival=0 downstream=0 cap=0.05 res=180
insertion p0 4000 0
terminal t1 8000 0 arrival=0 downstream=0 cap=0.05 res=180
wire t0 p0
wire p0 t1
repeater rep1x a2b=50,180 b2a=50,180 cap=0.05,0.05 cost=2
";

    #[test]
    fn report_contains_all_sections() {
        let nf = parse_net_file(SAMPLE).unwrap();
        let report = make_report(&nf, &ReportOptions::default()).unwrap();
        assert!(report.contains("# msrnet report"));
        assert!(report.contains("## Net"));
        assert!(report.contains("## Unoptimized timing"));
        assert!(report.contains("## Optimal repeater insertion"));
        assert!(report.contains("Knee of the frontier"));
        assert!(report.contains("| t0 |"));
        assert!(report.contains("| t1 |"));
    }

    #[test]
    fn report_answers_achievable_spec() {
        let nf = parse_net_file(SAMPLE).unwrap();
        let loose = make_report(
            &nf,
            &ReportOptions {
                spec: Some(1e9),
                ..ReportOptions::default()
            },
        )
        .unwrap();
        assert!(loose.contains("Cheapest solution"));
        let tight = make_report(
            &nf,
            &ReportOptions {
                spec: Some(1.0),
                ..ReportOptions::default()
            },
        )
        .unwrap();
        assert!(tight.contains("Unachievable"));
    }

    #[test]
    fn report_handles_sink_only_terminals() {
        let text = SAMPLE.replace(
            "terminal t1 8000 0 arrival=0 downstream=0 cap=0.05 res=180",
            "terminal t1 8000 0 arrival=- downstream=0 cap=0.05",
        );
        let nf = parse_net_file(&text).unwrap();
        let report = make_report(&nf, &ReportOptions::default()).unwrap();
        // t1 never drives: its source column is a dash.
        assert!(report.contains("| t1 | — |"));
    }
}
