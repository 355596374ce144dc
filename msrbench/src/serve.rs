//! `serve`: a closed loop of two client connections to an in-process
//! `Server` over loopback TCP; one op per request.
//!
//! Each round opens a session on a pool net, sends one `edit` carrying a
//! short seeded `random_trace` prefix, fetches the `curve` and closes.
//! Clients wait for each reply, like the timing tools that drive the
//! service. The default residency cap is far above the two sessions in
//! flight, so no eviction is expected. Every `edit` and `curve` response is
//! compared byte for byte with a local `Replayer` run on the same net and
//! trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msrnet_core::{MsriOptions, PruningStrategy, TerminalOptions, WireOption};
use msrnet_incremental::json::{parse_json, Json};
use msrnet_incremental::{parse_trace, random_trace, trace_to_json, IncrementalOptimizer};
use msrnet_netgen::format::{parse_net_file, write_net_file};
use msrnet_netgen::{table1, ExperimentNet};
use msrnet_rctree::TerminalId;
use msrnet_rng::rngs::StdRng;
use msrnet_rng::{Rng, SeedableRng};
use msrnet_service::frame::DEFAULT_MAX_PAYLOAD;
use msrnet_service::replay::Replayer;
use msrnet_service::server::{Server, ServerConfig};
use msrnet_service::{Client, ClientError, Endpoint, Request, Response};

use crate::stats::{digest_str, mix, percentile, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Window, Workload};

const CLIENTS: usize = 2;

/// One pool net with its trace and the oracle's expected responses.
struct Entry {
    name: String,
    msr: String,
    trace: String,
    edit: String,
    curve: Result<String, String>,
}

/// Wire bytes and server counters of the warm-up pass.
#[derive(Default)]
struct Census {
    request_bytes: u64,
    response_bytes: u64,
    requests_ok: f64,
    requests_error: f64,
}

/// Counters of the local incremental replay (traced runs only).
#[derive(Default)]
struct Local {
    visited: u64,
    recomputed: u64,
    reused: u64,
    rejected: u64,
    /// Per entry: apply + recompute + from-scratch time of its trace, ms.
    edit_ms: Vec<f64>,
}

/// A prepared serve workload.
pub struct Serve {
    pool: Vec<Entry>,
    observed: Vec<u64>,
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    seed: u64,
    windows: u64,
    /// `(entry, ms)` of every served edit in traced windows.
    served_edits: Vec<(usize, f64)>,
    census: Census,
    local: Local,
    failures: Vec<String>,
}

fn frame_len(frame: msrnet_service::Frame) -> u64 {
    frame
        .encode(DEFAULT_MAX_PAYLOAD)
        .map_or(0, |b| b.len() as u64)
}

/// Times one call under a span; pushes its latency in ms.
fn timed<R>(
    tracer: &Tracer,
    name: &'static str,
    op: u64,
    tid: u32,
    lat_ms: &mut Vec<f64>,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = tracer.span(name, op, tid, None, |_| f());
    lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
    out
}

/// Runs one round on `client`, pushing per-request latencies (ms);
/// returns failure messages. With `bytes`, adds the round's wire bytes.
fn round(
    client: &mut Client,
    e: &Entry,
    tracer: &Tracer,
    op: u64,
    tid: u32,
    lat_ms: &mut Vec<f64>,
    bytes: Option<&mut Census>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let open = timed(tracer, "service.open", op * 4, tid, lat_ms, || {
        client.open(&e.name, &e.msr, 0, 0.0)
    });
    let session = match open {
        Ok(s) => s,
        Err(err) => return vec![format!("{}: open: {err}", e.name)],
    };
    match timed(tracer, "service.edit", op * 4 + 1, tid, lat_ms, || {
        client.edit(session, &e.trace)
    }) {
        Ok(rows) if rows == e.edit => {}
        Ok(_) => failures.push(format!(
            "{}: edit response differs from the local replay",
            e.name
        )),
        Err(err) => failures.push(format!("{}: edit: {err}", e.name)),
    }
    match (
        timed(tracer, "service.curve", op * 4 + 2, tid, lat_ms, || {
            client.curve(session)
        }),
        &e.curve,
    ) {
        (Ok(got), Ok(want)) if got == *want => {}
        (Err(ClientError::Server { message, .. }), Err(want)) if message == *want => {}
        (got, _) => failures.push(format!(
            "{}: curve response differs from the local replay: {got:?}",
            e.name
        )),
    }
    if let Err(err) = timed(tracer, "service.close", op * 4 + 3, tid, lat_ms, || {
        client.close(session)
    }) {
        failures.push(format!("{}: close: {err}", e.name));
    }
    if let Some(census) = bytes {
        let requests = [
            Request::Open {
                deadline_ms: 0,
                root: 0,
                driver_cost: 0.0,
                name: e.name.clone(),
                pruning: String::new(),
                msr: e.msr.clone(),
            },
            Request::Edit {
                deadline_ms: 0,
                session,
                trace: e.trace.clone(),
            },
            Request::Curve {
                deadline_ms: 0,
                session,
            },
            Request::Close {
                deadline_ms: 0,
                session,
            },
        ];
        census.request_bytes += requests.iter().map(|r| frame_len(r.encode())).sum::<u64>();
        let curve = e.curve.clone().unwrap_or_default();
        let payloads = [
            session.to_be_bytes().to_vec(),
            e.edit.clone().into_bytes(),
            curve.into_bytes(),
            Vec::new(),
        ];
        census.response_bytes += payloads
            .into_iter()
            .map(|p| frame_len(Response::Ok(p).encode()))
            .sum::<u64>();
    }
    failures
}

/// Replays each entry's trace through a local `IncrementalOptimizer`
/// configured as the server's sessions are, timing each step.
fn local_replay(pool: &[Entry], tracer: &Tracer) -> Result<Local, String> {
    let mut local = Local::default();
    for e in pool {
        let nf = parse_net_file(&e.msr).map_err(|err| format!("{}: {err}", e.name))?;
        let term_opts = TerminalOptions::defaults_with_cost(&nf.net, 0.0);
        let options = MsriOptions {
            allow_inverting: nf.library.iter().any(|r| r.inverting),
            ..MsriOptions::default()
        };
        let mut inc = IncrementalOptimizer::new(
            nf.net,
            TerminalId(0),
            nf.library,
            term_opts,
            vec![WireOption::unit()],
            options,
        );
        let _ = inc.recompute();
        let mut spent = Vec::new();
        for edit in parse_trace(&e.trace).map_err(|err| format!("{}: {err}", e.name))? {
            let applied = timed(tracer, "incremental.apply", 0, 0, &mut spent, || {
                inc.apply(&edit)
            });
            if applied.is_err() {
                local.rejected += 1;
                continue;
            }
            if let Ok((_, s)) = timed(tracer, "incremental.recompute", 0, 0, &mut spent, || {
                inc.recompute()
            }) {
                local.visited += s.nodes_visited as u64;
                local.recomputed += s.nodes_recomputed as u64;
                local.reused += s.nodes_reused as u64;
            }
            let _ = timed(tracer, "incremental.from_scratch", 0, 0, &mut spent, || {
                inc.from_scratch()
            });
        }
        let spent: f64 = spent.iter().sum();
        local.edit_ms.push(spent);
    }
    Ok(local)
}

fn stats_field(stats: &str, key: &str) -> Option<f64> {
    match parse_json(stats).ok()? {
        Json::Obj(fields) => match Json::get(&fields, key)? {
            Json::Num(x) => Some(*x),
            _ => None,
        },
        _ => None,
    }
}

fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    let mut c = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(c)
}

impl Serve {
    fn stop_server(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.server.take() {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => self.failures.push(format!("server: {e}")),
                Err(_) => self.failures.push("server thread panicked".into()),
            }
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop_server();
    }
}

impl Workload for Serve {
    fn prepare(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let params = table1();
        let size = if ctx.tiny { 3 } else { 64 };
        let pinned = ctx.pins(size)?;
        let mut pool = Vec::new();
        let mut observed = Vec::new();
        let mut failures = Vec::new();
        for (i, pinned) in pinned.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(mix(&[ctx.bank, 0x5e7e, i as u64]));
            let terminals = rng.gen_range(5..=8usize);
            let net = tracer.span("netgen.instance", 0, 0, None, |_| {
                ExperimentNet::random(&mut rng, terminals, &params)
                    .map(|exp| exp.with_insertion_points(2500.0))
            });
            let net = net.map_err(|e| format!("pool net {i}: {e}"))?;
            let library = vec![params.repeater(1.0)];
            let msr = write_net_file(&net, &library);
            let edits = random_trace(&net, rng.next_u64(), rng.gen_range(1..=3usize));
            let trace = trace_to_json(&edits);
            let name = format!("pool{i}.msr");
            // The oracle: the server's own replay engine, run locally on
            // the same bytes the server will parse.
            let nf = parse_net_file(&msr).map_err(|e| format!("{name}: {e}"))?;
            let mut rep = Replayer::open(
                name.clone(),
                nf.net,
                TerminalId(0),
                nf.library,
                0.0,
                PruningStrategy::default(),
                false,
            )?;
            let before = rep.row_count();
            rep.replay(
                &parse_trace(&trace).map_err(|e| format!("{name}: {e}"))?,
                false,
            );
            let edit = rep.rows_since(before);
            let curve = rep.curve_json();
            let digest = digest_str(&format!("{edit}\n{curve:?}"));
            if pinned.is_some_and(|d| d != digest) {
                failures.push(format!("{name}: oracle digest {digest:016x} != pinned"));
            }
            observed.push(digest);
            pool.push(Entry {
                name,
                msr,
                trace,
                edit,
                curve,
            });
        }
        let local = if tracer.enabled() {
            local_replay(&pool, tracer)?
        } else {
            Local::default()
        };
        let server = Server::bind(
            &Endpoint::Tcp("127.0.0.1:0".into()),
            ServerConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let endpoint = server
            .local_endpoint()
            .map_err(|e| format!("endpoint: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || server.run(&flag));
        let mut serve = Serve {
            pool,
            observed,
            endpoint,
            stop,
            server: Some(handle),
            seed: ctx.seed,
            windows: 0,
            served_edits: Vec::new(),
            census: Census::default(),
            local,
            failures,
        };
        // Warm-up: every pool entry once through the server, counting
        // the wire bytes and the server's request counters.
        let mut client = connect(&serve.endpoint)?;
        let mut census = Census::default();
        let off = Tracer::new(false);
        for (i, e) in serve.pool.iter().enumerate() {
            let failed = round(
                &mut client,
                e,
                &off,
                i as u64,
                0,
                &mut Vec::new(),
                Some(&mut census),
            );
            serve.failures.extend(failed);
        }
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        census.requests_ok = stats_field(&stats, "requests_ok").unwrap_or(-1.0);
        census.requests_error = stats_field(&stats, "requests_error").unwrap_or(-1.0);
        serve.census = census;
        Ok(serve)
    }

    fn window(&mut self, budget_s: f64, tracer: &Tracer) -> Window {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(budget_s);
        let window = self.windows;
        self.windows += 1;
        let (pool, endpoint, seed) = (&self.pool, &self.endpoint, self.seed);
        type ClientRun = (Vec<f64>, Vec<(usize, f64)>, Vec<String>);
        let results: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    scope.spawn(move || {
                        let (mut lat_ms, mut edits, mut failures) =
                            (Vec::new(), Vec::new(), Vec::new());
                        let mut client = match connect(endpoint) {
                            Ok(c) => c,
                            Err(e) => return (lat_ms, edits, vec![e]),
                        };
                        let mut rng = StdRng::seed_from_u64(mix(&[seed, window, t as u64]));
                        let mut order: Vec<usize> = (0..pool.len()).collect();
                        let mut op = 0u64;
                        'rounds: loop {
                            rng.shuffle(&mut order);
                            for &i in &order {
                                if Instant::now() >= deadline && op > 0 {
                                    break 'rounds;
                                }
                                let id = (t as u64) << 40 | window << 32 | op;
                                let before = lat_ms.len();
                                failures.extend(round(
                                    &mut client,
                                    &pool[i],
                                    tracer,
                                    id,
                                    t as u32,
                                    &mut lat_ms,
                                    None,
                                ));
                                // The edit follows the open; both ran if
                                // the round got past the open.
                                if tracer.enabled() && lat_ms.len() > before + 1 {
                                    edits.push((i, lat_ms[before + 1]));
                                }
                                op += 1;
                            }
                        }
                        (lat_ms, edits, failures)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        let mut lat_ms = Vec::new();
        for (lat, edits, failures) in results {
            lat_ms.extend(lat);
            self.served_edits.extend(edits);
            self.failures.extend(failures);
        }
        Window {
            lat_ms,
            entry: Vec::new(),
            elapsed_s,
        }
    }

    fn observed(&self) -> Vec<u64> {
        self.observed.clone()
    }

    fn finish(mut self, tracer: &Tracer, m: &mut Metrics) -> Vec<String> {
        match connect(&self.endpoint).and_then(|mut c| c.stats().map_err(|e| format!("stats: {e}")))
        {
            Ok(stats) => {
                if stats_field(&stats, "sessions_open") != Some(0.0) {
                    self.failures
                        .push(format!("sessions left open at the end:\n{stats}"));
                }
                if stats_field(&stats, "requests_error") != Some(0.0) {
                    self.failures.push(format!(
                        "the server answered requests with errors:\n{stats}"
                    ));
                }
            }
            Err(e) => self.failures.push(e),
        }
        self.stop_server();
        m.set("netgen.instance_ms_p50", tracer.p50_ms("netgen.instance"));
        for kind in ["open", "edit", "curve", "close"] {
            m.set(
                &format!("service.{kind}_ms_p50"),
                tracer.p50_ms(&format!("service.{kind}")),
            );
        }
        let local = &self.local;
        // Per pool entry: its median served edit minus the local apply +
        // recompute + from_scratch time of the same trace.
        let mut served: Vec<Vec<f64>> = vec![Vec::new(); local.edit_ms.len()];
        for &(i, ms) in &self.served_edits {
            served[i].push(ms);
        }
        let overheads: Vec<f64> = served
            .iter()
            .zip(&local.edit_ms)
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, local_ms)| percentile(s, 0.5) - local_ms)
            .collect();
        m.set("service.edit_overhead_ms_p50", percentile(&overheads, 0.5));
        m.set("service.request_bytes", self.census.request_bytes as f64);
        m.set("service.response_bytes", self.census.response_bytes as f64);
        m.set("service.requests_ok", self.census.requests_ok);
        m.set("service.requests_error", self.census.requests_error);
        let apply_us: Vec<f64> = tracer
            .durations_ms("incremental.apply")
            .iter()
            .map(|x| x * 1e3)
            .collect();
        m.set("incremental.apply_us_p50", percentile(&apply_us, 0.5));
        m.set(
            "incremental.recompute_ms_p50",
            tracer.p50_ms("incremental.recompute"),
        );
        m.set(
            "incremental.scratch_ms_p50",
            tracer.p50_ms("incremental.from_scratch"),
        );
        m.set("incremental.nodes_visited", local.visited as f64);
        m.set("incremental.nodes_recomputed", local.recomputed as f64);
        m.set("incremental.nodes_reused", local.reused as f64);
        m.set(
            "incremental.reuse_ratio",
            ratio(local.reused as f64, local.visited as f64),
        );
        m.set("incremental.rejected", local.rejected as f64);
        std::mem::take(&mut self.failures)
    }
}
