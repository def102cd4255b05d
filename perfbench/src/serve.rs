//! `serve-edit`: a closed loop of two client connections against an
//! in-process `air serve` (two workers, TCP loopback). Most requests are
//! single-statement `reverify` edits and repeated `verify` calls on warm
//! table sets; a fixed share are cold `verify`/`analyze` calls on fresh
//! `(vars, domain)` keys.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use air_fuzz::diff::skip_one_statement;
use air_lang::gen::XorShift;
use air_lang::{parse_bexp, Concrete};
use air_serve::{read_frame, start, write_frame, RunningServer, ServeConfig, DEFAULT_MAX_FRAME};
use air_trace::json::{self, Value};
use air_trace::Tracer;

use crate::gauge::Gauge;
use crate::instances::{shuffle, Family, Instance, Strategy};
use crate::ledger::{LayerSink, Totals};
use crate::stats::{median, ms, quantile, Outcome};
use crate::verify::{fits, rate, SETUPS};
use crate::Args;

/// Client connections (closed loop: one request in flight on each).
const CONNECTIONS: usize = 2;
/// Requests per connection per pass.
const REQUESTS: usize = 400;
/// Per mille of requests that are single-statement `reverify` edits.
/// The request shares are an assumption, not a recorded trace; README.md
/// gives the reasons and how much the figures move with them.
const EDIT_PER_MILLE: usize = 700;
/// Per mille of requests that are cold calls on fresh keys. Below 10%,
/// so that the cold requests sit beyond the p90 and both percentiles
/// describe the warm path.
const COLD_PER_MILLE: usize = 50;
/// Per-request fuel budget (governed ticks; the requests here spend at
/// most a few hundred).
const FUEL: u64 = 1_000_000;

/// The warm table sets: small instances (800 to 3,000 stores, above the
/// semantic cache's bypass threshold) across families, domains and
/// strategies.
const WARM: [(Family, i64, bool, &str, Strategy); 6] = [
    (Family::Countdown, 14, true, "int", Strategy::Backward),
    (Family::TwoPhase, 9, true, "oct", Strategy::Backward),
    (Family::Division, 18, false, "karr", Strategy::Backward),
    (Family::BranchChain, 16, true, "int", Strategy::Forward),
    (Family::Triangular, 8, false, "int", Strategy::Backward),
    (Family::Gauss, 100, true, "oct", Strategy::Backward),
];

/// The expected answer of one request.
#[derive(Clone, Copy, Debug)]
struct Expect {
    holds: bool,
    /// `|⟦r⟧pre ∖ spec|`, the exact true-alarm count of `analyze`.
    true_alarms: usize,
}

/// One request of the sequence, rendered except for its `id`.
#[derive(Clone)]
struct Request {
    body: String,
    expect: Expect,
    analyze: bool,
}

fn expect(inst: &Instance) -> (Expect, Duration) {
    let started = Instant::now();
    let u = inst.universe();
    let sem = Concrete::new(&u);
    let sat = |t: &str| sem.sat(&parse_bexp(t).expect("parses")).expect("evaluates");
    let post = sem
        .exec(&inst.program, &sat(&inst.pre))
        .expect("ground truth evaluates");
    let bad = post.difference(&sat(&inst.spec)).len();
    (
        Expect {
            holds: bad == 0,
            true_alarms: bad,
        },
        started.elapsed(),
    )
}

fn body(job: &str, inst: &Instance) -> String {
    format!(
        r#""job":"{job}","vars":{},"code":{},"pre":{},"spec":{},"domain":"{}","strategy":"{}","fuel":{FUEL}"#,
        json::str_lit(&inst.vars_decl()),
        json::str_lit(&inst.program.to_source()),
        json::str_lit(&inst.pre),
        json::str_lit(&inst.spec),
        inst.domain,
        inst.strategy.name(),
    )
}

/// The seeded workload: warm bases, and per connection one request
/// sequence with exact shares of edits, repeats and cold calls.
struct Workload {
    warm: Vec<Request>,
    sequences: Vec<Vec<Request>>,
    exec_ref: Duration,
}

fn workload(seed: u64) -> Workload {
    let mut rng = XorShift::new(seed ^ 0xD1B5_4A32_D192_ED03);
    let mut exec_ref = Duration::ZERO;
    let mut truth = |inst: &Instance| {
        let (e, t) = expect(inst);
        exec_ref += t;
        e
    };
    let bases: Vec<Instance> = WARM
        .iter()
        .map(|&(family, size, holds, domain, strategy)| {
            family.instance(size, holds, domain, strategy)
        })
        .collect();
    let warm: Vec<Request> = bases
        .iter()
        .map(|inst| Request {
            body: body("verify", inst),
            expect: truth(inst),
            analyze: false,
        })
        .collect();
    // Every single-statement edit of every base, with its own answer.
    let edits: Vec<Vec<Request>> = bases
        .iter()
        .map(|base| {
            (0..base.program.basic_count() as u64)
                .map(|k| {
                    let edited = Instance {
                        program: skip_one_statement(&base.program, k),
                        ..base.clone()
                    };
                    Request {
                        body: body("reverify", &edited),
                        expect: truth(&edited),
                        analyze: false,
                    }
                })
                .collect()
        })
        .collect();
    let edit_n = REQUESTS * EDIT_PER_MILLE / 1000;
    let cold_n = REQUESTS * COLD_PER_MILLE / 1000;
    let mut sequences = Vec::new();
    // Cold keys handed out so far, per base.
    let mut cold_slots = vec![0i64; bases.len()];
    for _ in 0..CONNECTIONS {
        let mut seq = Vec::with_capacity(REQUESTS);
        // Every base gets the same share of each request kind and its
        // edits in rotation; the seed picks where each rotation starts,
        // the cold keys and the order.
        let starts: Vec<usize> = edits.iter().map(|e| rng.below(e.len())).collect();
        for i in 0..REQUESTS {
            let b = i % bases.len();
            if i < edit_n {
                let k = (starts[b] + i / bases.len()) % edits[b].len();
                seq.push(edits[b][k].clone());
            } else if i < edit_n + cold_n {
                // A fresh key: the base with its first variable's range
                // widened by an amount no other request of the pass uses.
                let mut cold = bases[b].clone();
                cold.vars[0].2 += 1 + 3 * cold_slots[b] + rng.below(3) as i64;
                cold_slots[b] += 1;
                let analyze = i % 2 == 0;
                seq.push(Request {
                    body: body(if analyze { "analyze" } else { "verify" }, &cold),
                    expect: truth(&cold),
                    analyze,
                });
            } else {
                seq.push(warm[b].clone());
            }
        }
        shuffle(&mut rng, &mut seq);
        sequences.push(seq);
    }
    Workload {
        warm,
        sequences,
        exec_ref,
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let writer = stream.try_clone().expect("clone the client stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn roundtrip(&mut self, payload: &str) -> String {
        write_frame(&mut self.writer, payload).expect("send a frame");
        read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
            .expect("read a frame")
            .expect("the server answers before closing")
    }
}

fn boot(tracer: Tracer) -> RunningServer {
    start(
        ServeConfig {
            tcp: Some("127.0.0.1:0".into()),
            workers: 2,
            ..ServeConfig::default()
        },
        tracer,
    )
    .expect("in-process server starts")
}

fn stop(server: RunningServer) {
    server.stop();
    server.join();
}

/// Warms every base table set (the daemon's steady state before a pass).
fn warm_up(addr: SocketAddr, w: &Workload, tag: &str, out: &mut Outcome) {
    let mut client = Client::connect(addr);
    for (i, req) in w.warm.iter().enumerate() {
        let line = client.roundtrip(&format!(r#"{{"id":"warm-{tag}-{i}",{}}}"#, req.body));
        check(&line, req, out);
    }
}

/// The response with its `report` string cut out: the report can run to
/// tens of kilobytes, and no check reads it.
fn without_report(line: &str) -> std::borrow::Cow<'_, str> {
    const KEY: &str = r#","report":""#;
    let Some(start) = line.find(KEY) else {
        return line.into();
    };
    let body = &line[start + KEY.len()..];
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return format!("{}{}", &line[..start], &body[i + 1..]).into(),
            _ => {}
        }
    }
    line.into()
}

/// One answered request: what the client saw.
struct Answer {
    id: String,
    rtt_ms: f64,
    line: String,
}

/// Checks one response against the ground truth; returns the parsed
/// document for the caller's accounting.
fn check(line: &str, req: &Request, out: &mut Outcome) -> Option<Value> {
    out.attempted += 1;
    let Ok(doc) = json::parse(&without_report(line)) else {
        out.fail(format!("unparsable response `{line}`"));
        return None;
    };
    let status = doc.get("status").and_then(Value::as_str).unwrap_or("");
    let ok = if req.analyze {
        let true_alarms = doc
            .get("alarms")
            .and_then(|a| a.get("true"))
            .and_then(Value::as_num);
        matches!(status, "clean" | "alarms") && true_alarms == Some(req.expect.true_alarms as f64)
    } else {
        status
            == if req.expect.holds {
                "proved"
            } else {
                "refuted"
            }
    };
    if !ok {
        out.fail(format!(
            "wrong response `{line}` (expected {:?})",
            req.expect
        ));
    }
    Some(doc)
}

/// One pass: flush, re-warm, then both connections run their sequence
/// in a closed loop. Returns the pass wall time and the answers. With a
/// `sink`, the events of the flush and the warm-up are dropped from it
/// (into `totals` go only their `request_completed` events, keyed by
/// request id: the daemon emits those after the response, so one may
/// still belong to the previous pass), and the totals of the previous
/// closed loop are moved into `totals` first.
fn pass(
    addr: SocketAddr,
    w: &Workload,
    tag: &str,
    sink: Option<&LayerSink>,
    totals: &mut Totals,
    out: &mut Outcome,
) -> (Duration, Vec<Vec<Answer>>) {
    if let Some(sink) = sink {
        totals.merge(sink.take());
    }
    let mut control = Client::connect(addr);
    let flushed = control.roundtrip(&format!(r#"{{"id":"flush-{tag}","job":"flush"}}"#));
    if !flushed.contains(r#""status":"ok""#) {
        out.fail(format!("flush failed: `{flushed}`"));
    }
    warm_up(addr, w, tag, out);
    if let Some(sink) = sink {
        totals.completed_ns.extend(sink.take().completed_ns);
    }
    let barrier = Barrier::new(CONNECTIONS + 1);
    let (wall, answers) = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .sequences
            .iter()
            .enumerate()
            .map(|(conn, seq)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let payloads: Vec<(String, String)> = seq
                        .iter()
                        .enumerate()
                        .map(|(i, r)| {
                            let id = format!("{tag}-c{conn}-{i}");
                            let payload = format!(r#"{{"id":"{id}",{}}}"#, r.body);
                            (id, payload)
                        })
                        .collect();
                    let mut answers = Vec::with_capacity(seq.len());
                    barrier.wait();
                    for (id, payload) in payloads {
                        let t = Instant::now();
                        let line = client.roundtrip(&payload);
                        answers.push(Answer {
                            id,
                            rtt_ms: ms(t.elapsed()),
                            line,
                        });
                    }
                    answers
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let answers: Vec<Vec<Answer>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread completes"))
            .collect();
        (started.elapsed(), answers)
    });
    (wall, answers)
}

/// Totals over the answers of several passes.
#[derive(Default)]
struct Tally {
    walls_s: Vec<f64>,
    /// Per connection and request, its round trip in every pass (ms at
    /// the reference speed, gauged over the pass). Every pass sends the
    /// same requests to a daemon in the same state.
    rtts_ms: Vec<Vec<Vec<f64>>>,
    /// Per pass, the host's slowness over it.
    slowness: Vec<f64>,
    job_ms: f64,
    warm: u64,
    engine: u64,
    program_nodes: f64,
    reused_nodes: f64,
    /// Request id → round trip (ms), for joining with server events.
    rtt_by_id: HashMap<String, f64>,
    /// Sink totals of the closed loops (traced passes only).
    totals: Totals,
}

impl Tally {
    /// Per connection and request, the median of its round trips at the
    /// reference speed.
    fn per_request(&self) -> Vec<Vec<f64>> {
        self.rtts_ms
            .iter()
            .map(|conn| conn.iter().map(|rtts| median(rtts)).collect())
            .collect()
    }
}

fn measure(
    addr: SocketAddr,
    w: &Workload,
    budget: Duration,
    label: &str,
    sink: Option<&LayerSink>,
    out: &mut Outcome,
) -> Tally {
    let mut tally = Tally {
        rtts_ms: w
            .sequences
            .iter()
            .map(|seq| vec![Vec::new(); seq.len()])
            .collect(),
        ..Tally::default()
    };
    let started = Instant::now();
    let mut n = 0;
    while fits(&tally.walls_s, started, budget) {
        let tag = format!("{label}{n}");
        n += 1;
        let mut gauge = Gauge::start(CONNECTIONS);
        let (wall, answers) = pass(addr, w, &tag, sink, &mut tally.totals, out);
        let slowness = gauge.lap();
        tally.walls_s.push(wall.as_secs_f64());
        tally.slowness.push(slowness);
        for ((seq, answers), rtts) in w.sequences.iter().zip(answers).zip(&mut tally.rtts_ms) {
            for ((req, a), rtts) in seq.iter().zip(answers).zip(rtts) {
                rtts.push(a.rtt_ms / slowness);
                let Some(doc) = check(&a.line, req, out) else {
                    continue;
                };
                if doc.get("id").and_then(Value::as_str) != Some(a.id.as_str()) {
                    out.fail(format!("response id mismatch for {}", a.id));
                }
                let job_ms = doc
                    .get("duration_ns")
                    .and_then(Value::as_num)
                    .unwrap_or(0.0)
                    / 1e6;
                tally.job_ms += job_ms;
                tally.rtt_by_id.insert(a.id, a.rtt_ms);
                if let Some(warm) = doc.get("warm").and_then(Value::as_bool) {
                    tally.engine += 1;
                    tally.warm += u64::from(warm);
                }
                if let Some(reuse) = doc.get("reuse") {
                    let num = |k: &str| reuse.get(k).and_then(Value::as_num).unwrap_or(0.0);
                    tally.program_nodes += num("program_nodes");
                    tally.reused_nodes += num("reused_nodes");
                }
            }
        }
    }
    tally
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let w = workload(args.seed);
    // Set-up (daemon start + warm pass) several times; the median is
    // `setup_s` and the last daemon is the one measured.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        if let Some(previous) = server.take() {
            stop(previous);
        }
        let mut gauge = Gauge::start(CONNECTIONS);
        let t = Instant::now();
        let s = boot(Tracer::disabled());
        warm_up(
            s.addr().expect("TCP transport has an address"),
            &w,
            &format!("setup{i}"),
            &mut out,
        );
        let measured = t.elapsed().as_secs_f64();
        setups.push(measured / gauge.lap());
        server = Some(s);
    }
    let server = server.expect("set-up ran");
    let addr = server.addr().expect("TCP transport has an address");
    let requests: usize = w.sequences.iter().map(Vec::len).sum();
    eprintln!(
        "serve-edit: {CONNECTIONS} connections x {REQUESTS} requests per pass ({}% edits, {}% cold), {} warm table sets",
        EDIT_PER_MILLE / 10,
        COLD_PER_MILLE / 10,
        w.warm.len()
    );
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let plain = measure(addr, &w, budget, "p", None, &mut out);
    stop(server);
    // A pass at every request's median round trip: each connection's
    // round trips summed; the pass ends with the slower connection.
    let work_s = |t: &Tally| {
        t.per_request()
            .iter()
            .map(|conn| conn.iter().sum::<f64>())
            .fold(0.0, f64::max)
            / 1e3
    };
    if !args.trace {
        out.set("setup_s", median(&setups), "s");
        let typical: Vec<f64> = plain.per_request().concat();
        out.set("work_s", work_s(&plain), "s");
        out.set("latency_p50_ms", quantile(&typical, 0.5), "ms");
        out.set("latency_p90_ms", quantile(&typical, 0.9), "ms");
        eprintln!(
            "serve-edit: {} passes {:?} s as measured, host slowness {:?}, {requests} requests each (p90 has {} beyond it)",
            plain.walls_s.len(),
            plain.walls_s,
            plain.slowness,
            requests / 10
        );
        return out;
    }

    // Traced half: a fresh daemon whose tracer feeds the sink.
    let sink = LayerSink::new();
    let server = boot(sink.tracer());
    let addr = server.addr().expect("TCP transport has an address");
    sink.take();
    let mut traced = measure(addr, &w, budget, "t", Some(&sink), &mut out);
    stop(server);
    traced.totals.merge(sink.take());
    let totals = &traced.totals;
    let n = traced.rtt_by_id.len() as f64;
    let (mut server_ms, mut wire_ms) = (0.0, 0.0);
    for (id, rtt) in &traced.rtt_by_id {
        let srv = totals.completed_ns.get(id).copied().unwrap_or(0) as f64 / 1e6;
        server_ms += srv;
        wire_ms += rtt - srv;
    }
    // Ledger per request: connection time = job + admit/queue/encode +
    // wire + other (client-side work between requests).
    let conn_ms = traced.walls_s.iter().sum::<f64>() * 1e3 * CONNECTIONS as f64;
    out.set("serve.server_ms", server_ms / n, "ms");
    out.set("serve.job_ms", traced.job_ms / n, "ms");
    out.set(
        "serve.admit_queue_encode_ms",
        (server_ms - traced.job_ms) / n,
        "ms",
    );
    out.set("serve.wire_ms", wire_ms / n, "ms");
    out.set(
        "serve.warm_share",
        rate(traced.warm, traced.engine - traced.warm),
        "ratio",
    );
    out.set(
        "core.session_reuse_ratio",
        traced.reused_nodes / traced.program_nodes.max(1.0),
        "ratio",
    );
    out.set(
        "core.verify_ms",
        (totals.span_ms("verify.backward") + totals.span_ms("verify.forward")) / n,
        "ms",
    );
    out.set("ledger.e2e_ms", conn_ms / n, "ms");
    out.set("ledger.other_ms", (conn_ms - server_ms - wire_ms) / n, "ms");
    out.set("lang.exec_ref_ms", ms(w.exec_ref), "ms");
    out.set(
        "lang.exec_hits",
        totals.cache("exec", "hit") as f64 / n,
        "count",
    );
    out.set(
        "lang.exec_misses",
        totals.cache("exec", "miss") as f64 / n,
        "count",
    );
    out.set(
        "lang.exec_hit_rate",
        rate(totals.cache("exec", "hit"), totals.cache("exec", "miss")),
        "ratio",
    );
    let base = work_s(&plain);
    out.set(
        "trace.overhead_pct",
        (work_s(&traced) - base) / base * 100.0,
        "%",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(w: &Workload) -> Vec<String> {
        w.sequences
            .iter()
            .flatten()
            .map(|r| r.body.clone())
            .collect()
    }

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(bodies(&workload(5)), bodies(&workload(5)));
        assert_ne!(bodies(&workload(5)), bodies(&workload(6)));
    }

    #[test]
    fn report_is_cut_out_before_parsing() {
        let line = r#"{"id":"a","status":"proved","job":"verify","report":"PROVED \"x\"\n","points":0,"warm":true}"#;
        assert_eq!(
            without_report(line),
            r#"{"id":"a","status":"proved","job":"verify","points":0,"warm":true}"#
        );
    }

    #[test]
    fn warm_daemon_answers_match_ground_truth() {
        let w = workload(1);
        let server = boot(Tracer::disabled());
        let mut out = Outcome::default();
        warm_up(server.addr().expect("tcp address"), &w, "test", &mut out);
        stop(server);
        assert_eq!(out.attempted, WARM.len() as u64);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
    }
}
