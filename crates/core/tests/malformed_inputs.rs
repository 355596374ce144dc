//! Malformed solve requests are typed errors, never panics: a root past
//! the last terminal, driver menus built for a smaller net, an empty
//! wire menu and parasitics that overflow `f64` are each refused by
//! every DP entry point with an [`MsriError`].

use msrnet_core::{
    optimize, optimize_in, optimize_incremental, optimize_with_wires, required_cap_bound, DpCache,
    MsriError, MsriOptions, MsriWorkspace, TerminalOptions, WireOption,
};
use msrnet_geom::Point;
use msrnet_rctree::{Buffer, Net, NetBuilder, Repeater, Technology, Terminal, TerminalId};

/// A chain of `terminals` terminals with an insertion point between
/// neighbours.
fn chain(terminals: usize) -> Net {
    let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
    let term = || Terminal::bidirectional(0.0, 0.0, 0.05, 180.0);
    let mut prev = b.terminal(Point::new(0.0, 0.0), term());
    for i in 1..terminals {
        let x = 2000.0 * i as f64;
        let ip = b.insertion_point(Point::new(x - 1000.0, 0.0));
        b.wire(prev, ip);
        let t = b.terminal(Point::new(x, 0.0), term());
        b.wire(ip, t);
        prev = t;
    }
    b.build().expect("chain nets are valid").normalized()
}

fn library() -> Vec<Repeater> {
    let buf = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
    vec![Repeater::from_buffer_pair("rep", &buf, &buf)]
}

/// Runs one malformed request through every DP entry point that can
/// take `wires` and returns their errors; an accepted request fails the
/// test.
fn every_entry_point(
    net: &Net,
    root: TerminalId,
    term_opts: &TerminalOptions,
    wires: &[WireOption],
) -> Vec<(&'static str, MsriError)> {
    let lib = library();
    let options = MsriOptions::default();
    let unit = [WireOption::unit()];
    let mut out = Vec::new();
    let mut record = |name, r: Result<_, MsriError>| match r {
        Ok(_) => panic!("{name} accepted a malformed request"),
        Err(e) => out.push((name, e)),
    };
    if wires.len() == 1 {
        record(
            "optimize",
            optimize(net, root, &lib, term_opts, &options).map(drop),
        );
        record(
            "optimize_in",
            optimize_in(
                net,
                root,
                &lib,
                term_opts,
                &options,
                &mut MsriWorkspace::new(),
            )
            .map(drop),
        );
    }
    record(
        "optimize_with_wires",
        optimize_with_wires(net, root, &lib, term_opts, wires, &options).map(drop),
    );
    let bound_wires = if wires.is_empty() { &unit[..] } else { wires };
    let bound = required_cap_bound(net, &lib, term_opts, bound_wires);
    record(
        "optimize_incremental",
        optimize_incremental(
            net,
            root,
            &lib,
            term_opts,
            wires,
            &options,
            bound,
            &vec![true; net.topology.vertex_count()],
            &mut DpCache::new(),
            &mut MsriWorkspace::new(),
        )
        .map(drop),
    );
    out
}

#[test]
fn root_past_the_last_terminal_is_a_typed_error() {
    let net = chain(3);
    let opts = TerminalOptions::defaults(&net);
    for root in [3, 7] {
        for (name, err) in every_entry_point(&net, TerminalId(root), &opts, &[WireOption::unit()]) {
            assert_eq!(err, MsriError::RootOutOfRange(TerminalId(root)), "{name}");
            assert!(
                err.to_string().contains(&format!("t{root}")),
                "{name}: {err}"
            );
        }
    }
}

#[test]
fn driver_menus_for_a_smaller_net_are_no_options() {
    let net = chain(4);
    let small = TerminalOptions::defaults(&chain(2));
    for (name, err) in every_entry_point(&net, TerminalId(0), &small, &[WireOption::unit()]) {
        assert_eq!(err, MsriError::NoOptions(TerminalId(2)), "{name}");
    }
    // An empty menu ahead of the missing ones is the first terminal
    // without options.
    let mut holed = TerminalOptions::defaults(&chain(3));
    holed.set(TerminalId(1), Vec::new());
    for (name, err) in every_entry_point(&net, TerminalId(0), &holed, &[WireOption::unit()]) {
        assert_eq!(err, MsriError::NoOptions(TerminalId(1)), "{name}");
    }
}

#[test]
fn empty_wire_menu_is_a_typed_error() {
    let net = chain(3);
    let opts = TerminalOptions::defaults(&net);
    let errs = every_entry_point(&net, TerminalId(0), &opts, &[]);
    assert_eq!(errs.len(), 2, "both wire-taking entry points ran");
    for (name, err) in errs {
        assert_eq!(err, MsriError::NoWireOptions, "{name}");
    }
}

#[test]
fn overflowing_parasitics_are_a_typed_error() {
    // One finite but huge wire in an otherwise ordinary chain: its
    // resistance times the net's capacitance overflows `f64`. In a debug
    // build the DP would otherwise trip `Segment::new`'s `+∞` assert.
    let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
    let term = || Terminal::bidirectional(0.0, 0.0, 0.05, 180.0);
    let t0 = b.terminal(Point::new(0.0, 0.0), term());
    let ip = b.insertion_point(Point::new(1000.0, 0.0));
    let t1 = b.terminal(Point::new(2000.0, 0.0), term());
    b.wire(t0, ip);
    b.wire_with_length(ip, t1, 1e300);
    let net = b.build().expect("finite lengths are valid").normalized();
    let opts = TerminalOptions::defaults(&net);
    let wide = [WireOption::unit(), WireOption::width("2W", 2.0, 0.0)];
    for wires in [&[WireOption::unit()][..], &wide[..]] {
        let errs = every_entry_point(&net, TerminalId(0), &opts, wires);
        assert!(!errs.is_empty());
        for (name, err) in errs {
            assert_eq!(err, MsriError::Overflow, "{name}");
            assert!(err.to_string().contains("overflow"), "{name}: {err}");
        }
    }
    // A huge driver resistance overflows just the same.
    let net = chain(3);
    let mut opts = TerminalOptions::defaults(&net);
    let mut strong = opts.for_terminal(TerminalId(1)).to_vec();
    strong[0].drive_res = 1e308;
    opts.set(TerminalId(1), strong);
    for (name, err) in every_entry_point(&net, TerminalId(0), &opts, &[WireOption::unit()]) {
        assert_eq!(err, MsriError::Overflow, "{name}");
    }
}
