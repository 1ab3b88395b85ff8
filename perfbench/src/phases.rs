//! The untraced run: [`ROUNDS`] rounds, each opening with a set-up and
//! then running the lifecycle, closed-loop and wire phases, each checked
//! for correctness. The first set-up's artifacts serve the whole run;
//! the later ones are timed and discarded. Each round runs one lifecycle cycle, two slices of each
//! closed loop and a slice of each wire rate, so every metric, set-up
//! time included, is sampled across the whole run and reported as the
//! trimmed mean over the samples (see [`trimmed_mean`]): a slow spell
//! of the shared host moves a few samples rather than a whole metric.
//! Only end-to-end numbers are taken here; per-layer numbers come from
//! the traced run ([`crate::layers`]).

use crate::check::{results_digest, same_results, Digest};
use crate::mix::{concept_texts, repeat_share, Input, NoRepeat, Rng, WireMix};
use crate::stats::{over_slices, segments, summarize, trimmed_mean, Summary};
use crate::wire::{drive, drive_closed, search_request, Scheduled, Server};
use crate::{vm_hwm_kib, Args, Fault, Report, Spec, WorkDir};
use context_search::persist::{load_snapshot, save_snapshot};
use context_search::{EngineConfig, EngineSnapshot, SearchResult, Searcher};
use corpus::{generate_corpus, Corpus, CorpusConfig};
use ontology::{generate_ontology, GeneratorConfig, Ontology};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the generated ontology and corpus. The corpus is fixed per
/// workload so that run-to-run spread measures the system rather than
/// the corpus; `--seed` chooses the query mix and the arrival order.
pub const CORPUS_SEED: u64 = 42;

/// Rounds of `generate_queries` paraphrasing behind the concept pool.
/// The pool stops growing at about this many rounds, and it then holds
/// enough one-concept inputs for every workload's closed loop (see
/// [`closed_loop_ops`]).
pub const TEXT_ROUNDS: u64 = 128;

/// Rounds per run. `setup_s`, `prepare_s`, `warm_start_s` and the
/// closed-loop and wire metrics are trimmed means over the samples the
/// rounds take.
pub const ROUNDS: u64 = 8;

/// Inputs compared between the freshly prepared and the warm-loaded
/// snapshot, and folded into the results digest.
pub const CHECK_MIX: u64 = 200;

/// In-process client threads (the box's core count).
pub const CLIENT_THREADS: usize = 2;

/// Keep-alive connections of the wire loops, all driven by one client
/// thread (the box's core count).
pub const WIRE_CONNECTIONS: usize = 2;

/// Open-loop figures whose generator was later than this at the median
/// are marked invalid: the client, not the server, set the schedule.
/// They are printed, not gated, so the run goes on and its gated
/// metrics stand. (The p99
/// of lateness is reported but not judged: a stall of the shared host
/// delays the generator and the server alike, and the latency timed
/// from the due time already charges it.)
pub const MAX_LATE_P50_US: f64 = 1_000.0;

/// Fewest samples in a segment of a closed-loop slice: a p99 needs ten
/// samples beyond it.
pub const SEGMENT_MIN: usize = 1000;

/// Most segments per closed-loop slice. The closed-loop percentiles are
/// taken over the segments of all slices (16 to 64 per run), so a
/// stall of the shared host of a few milliseconds spoils one segment of
/// about 0.1 s, not a whole slice.
pub const SEGMENTS_PER_SLICE: usize = 4;

/// Warm starts per round; `warm_start_s` is taken over all of them.
pub const WARM_STARTS_PER_ROUND: usize = 2;

/// Slices of each closed loop (in process and on the wire) per round.
pub const SLICES_PER_ROUND: u64 = 2;

/// Seconds of untimed traffic before each round's wire slices.
pub const WIRE_WARMUP_S: f64 = 0.1;

/// Generated inputs of one workload.
pub struct Inputs {
    /// The ontology.
    pub ontology: Ontology,
    /// The corpus.
    pub corpus: Corpus,
    /// One-concept query texts for the mixes.
    pub texts: Vec<String>,
}

/// Generate the workload's ontology and corpus.
pub fn generate_world(spec: &Spec) -> (Ontology, Corpus) {
    let ontology = generate_ontology(&GeneratorConfig {
        n_terms: spec.terms,
        seed: CORPUS_SEED,
        ..GeneratorConfig::default()
    });
    let corpus = generate_corpus(
        &ontology,
        &CorpusConfig {
            n_papers: spec.papers,
            seed: CORPUS_SEED + 1,
            ..CorpusConfig::default()
        },
    );
    (ontology, corpus)
}

/// Generate the ontology, corpus and concept texts.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let (ontology, corpus) = generate_world(spec);
    let texts = concept_texts(&ontology, &corpus, seed, TEXT_ROUNDS);
    Inputs {
        ontology,
        corpus,
        texts,
    }
}

/// The prepare configuration: defaults with two build threads.
pub fn prepare_config() -> EngineConfig {
    EngineConfig {
        build_threads: 2,
        ..EngineConfig::default()
    }
}

/// One prepare + save.
pub struct Prepared {
    /// The freshly prepared snapshot.
    pub snapshot: Arc<EngineSnapshot>,
    /// Seconds taken.
    pub secs: f64,
    /// This process's peak resident memory so far (`VmHWM`), KiB.
    pub peak_kib: u64,
}

/// What `litsearch prepare` does: prepare the five default pairs and
/// save the snapshot to `dir`. Input copies and clearing `dir` are not
/// timed. Also returns this process's `VmHWM` after the save. A run's
/// first prepare comes before anything larger has been resident (set-up
/// only generates inputs first), so the `VmHWM` after it is that
/// prepare's peak: the inputs plus what prepare and save build.
pub fn prepare_and_save(inputs: &Inputs, dir: &Path) -> Result<Prepared, String> {
    let (ontology, corpus) = (inputs.ontology.clone(), inputs.corpus.clone());
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let snapshot = EngineSnapshot::prepare(ontology, corpus, prepare_config());
    save_snapshot(&snapshot, dir).map_err(|e| format!("save_snapshot: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let peak_kib = vm_hwm_kib(std::process::id()).ok_or("no VmHWM for this process")?;
    Ok(Prepared {
        snapshot,
        secs,
        peak_kib,
    })
}

/// Warm start: load the snapshot in `dir` and answer `first`. Returns
/// the snapshot and the seconds until the answer.
pub fn warm_start(dir: &Path, first: &Input) -> Result<(Arc<EngineSnapshot>, f64), String> {
    let t = Instant::now();
    let snapshot =
        load_snapshot(dir, EngineConfig::default()).map_err(|e| format!("load_snapshot: {e}"))?;
    std::hint::black_box(query(&snapshot.searcher(), first)?);
    Ok((snapshot, t.elapsed().as_secs_f64()))
}

/// One set-up: generate the inputs, then prepare + save into `dir` and
/// start the server on it where the workload's set-up holds them.
pub struct SetUp {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The prepare + save, where set-up holds it.
    pub prepared: Option<Prepared>,
    /// The server, where set-up starts it.
    pub server: Option<Server>,
    /// Seconds taken.
    pub secs: f64,
}

/// Run one set-up in `dir` (the snapshot goes to `dir/snapshot`).
pub fn set_up(args: &Args, dir: &Path) -> Result<SetUp, String> {
    let spec = &args.spec;
    let t = Instant::now();
    let inputs = generate(spec, args.seed);
    let prepared = if spec.prepare_in_setup {
        Some(prepare_and_save(&inputs, &dir.join("snapshot"))?)
    } else {
        None
    };
    let server = if spec.server_in_setup {
        Some(Server::start(&args.litsearch, &dir.join("snapshot"), dir)?)
    } else {
        None
    };
    Ok(SetUp {
        inputs,
        prepared,
        server,
        secs: t.elapsed().as_secs_f64(),
    })
}

/// Answer one input.
pub fn query(searcher: &Searcher, input: &Input) -> Result<Vec<SearchResult>, String> {
    let (kind, function) = input.kind_function();
    searcher
        .query(&input.query, kind, function, input.limit)
        .map_err(|e| e.to_string())
}

/// Bytes on disk of the files in `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let meta = entry.map_err(|e| e.to_string())?.metadata();
        total += meta.map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

/// Compare warm and fresh answers over the first [`CHECK_MIX`] inputs
/// of the stream: (failed, digest of the warm answers).
pub fn check_warm_against_fresh(
    fresh: &Searcher,
    warm: &Searcher,
    stream: &NoRepeat,
    fault: bool,
) -> Result<(u64, u64), String> {
    let mut failed = 0;
    let mut digest = Digest::default();
    for k in 0..CHECK_MIX {
        let input = stream.input(k).ok_or("the mix is shorter than the check")?;
        let mut expected = query(fresh, &input)?;
        if fault && k == 0 {
            corrupt(&mut expected);
        }
        let got = query(warm, &input)?;
        if !same_results(&expected, &got) {
            failed += 1;
        }
        digest.results(&got);
    }
    Ok((failed, digest.value()))
}

/// Make a result list wrong.
fn corrupt(results: &mut Vec<SearchResult>) {
    match results.first_mut() {
        Some(r) => r.relevancy = f64::from_bits(r.relevancy.to_bits() ^ 1),
        None => results.push(SearchResult {
            paper: corpus::PaperId(0),
            relevancy: 1.0,
            matching: 1.0,
            prestige: 1.0,
            context: ontology::TermId(0),
        }),
    }
}

/// Queries the closed loop runs over all rounds: its share of `seconds`
/// at the workload's nominal rate. The count is fixed before the loop
/// starts, so the mix does not depend on how fast the program runs; a
/// faster program finishes the same queries sooner.
pub fn closed_loop_ops(spec: &Spec, seconds: f64) -> u64 {
    (spec.closed_share * seconds * spec.closed_qps).ceil() as u64
}

/// The single-threaded reference: the digest of `reference`'s answer to
/// each of the first `n` inputs of `stream`.
pub fn reference_digests(
    reference: &Searcher,
    stream: &NoRepeat,
    n: u64,
    fault: bool,
) -> Result<Vec<u64>, String> {
    (0..n)
        .map(|k| {
            let input = stream.input(k).ok_or("the mix is shorter than the loop")?;
            let mut expected = query(reference, &input)?;
            if fault && k == 0 {
                corrupt(&mut expected);
            }
            Ok(results_digest(&expected))
        })
        .collect()
}

/// Closed-loop outcome.
pub struct ClosedLoop {
    /// Per-query latency, µs (failed queries as +∞), in stream order.
    pub latencies_us: Vec<f64>,
    /// Queries completed per second.
    pub qps: f64,
    /// Queries whose answer differed from the reference, or errored.
    pub failed: u64,
    /// Share of two-concept queries.
    pub long_share: f64,
    /// Share of inputs that repeat an earlier one.
    pub repeat_share: f64,
}

/// Run [`CLIENT_THREADS`] threads in a closed loop on one shared
/// `Searcher` through the inputs `ops` of `stream`, and compare every
/// answer with its reference digest (indexed by input).
pub fn closed_loop(
    serving: &Searcher,
    stream: &NoRepeat,
    reference: &[u64],
    ops: Range<u64>,
) -> Result<ClosedLoop, String> {
    let n = ops.end;
    let next = AtomicU64::new(ops.start);
    let start = Instant::now();
    let per_thread: Vec<Vec<(u64, u64, Option<u64>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                let (next, searcher) = (&next, serving.clone());
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = stream.input(k).filter(|_| k < n) else {
                            break;
                        };
                        let (kind, function) = input.kind_function();
                        let t = Instant::now();
                        let answer = searcher.query(&input.query, kind, function, input.limit);
                        let ns = t.elapsed().as_nanos() as u64;
                        done.push((k, ns, answer.ok().map(|r| results_digest(&r))));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let ops_start = ops.start;
    let mut ops: Vec<(u64, u64, Option<u64>)> = per_thread.into_iter().flatten().collect();
    ops.sort_unstable_by_key(|&(k, _, _)| k);
    if ops.len() as u64 != n - ops_start {
        return Err(format!(
            "the closed loop ran {} of {} queries",
            ops.len(),
            n - ops_start
        ));
    }
    let mut failed = 0;
    let mut latencies_us = Vec::with_capacity(ops.len());
    let mut long = 0usize;
    let mut seen = HashSet::new();
    let mut repeats = 0usize;
    for &(k, ns, digest) in &ops {
        let input = stream.input(k).ok_or("stream ended")?;
        long += usize::from(input.two_concept);
        let ok = digest == Some(reference[k as usize]);
        failed += u64::from(!ok);
        latencies_us.push(if ok { ns as f64 / 1e3 } else { f64::INFINITY });
        repeats += usize::from(!seen.insert(input));
    }
    Ok(ClosedLoop {
        qps: ops.len() as f64 / elapsed,
        failed,
        long_share: long as f64 / ops.len() as f64,
        repeat_share: repeats as f64 / ops.len() as f64,
        latencies_us,
    })
}

/// One open-loop rate.
pub struct RateRun {
    /// Requests scheduled.
    pub due: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests that failed (not 200, wrong body, no answer).
    pub failed: u64,
    /// Latency from due time, µs (failed requests as +∞), in order of
    /// due time.
    pub latencies_us: Vec<f64>,
    /// Send time minus due time, µs.
    pub late_us: Vec<f64>,
    /// Answers by status (0: none).
    pub statuses: HashMap<u16, u64>,
    /// Share of requests repeating an earlier input.
    pub repeat_share: f64,
}

/// The client of the wire phase: the seeded Zipf mix and the expected
/// body of every item drawn so far.
pub struct WireClient {
    searcher: Searcher,
    mix: WireMix,
    rng: Rng,
    expected: HashMap<usize, String>,
}

impl WireClient {
    /// A client whose expected bodies come from `searcher`.
    pub fn new(searcher: Searcher, texts: &[String], seed: u64) -> Self {
        Self {
            searcher,
            mix: WireMix::new(texts, seed),
            rng: Rng::new(seed ^ 0x0A11_1BA1),
            expected: HashMap::new(),
        }
    }

    /// `n` draws from the mix as dense indexes, with the request and
    /// the expected body of each distinct item, and the share of draws
    /// repeating an earlier one. With `fault`, one expected body is
    /// wrong.
    fn batch(&mut self, n: usize, fault: bool) -> Result<Batch, String> {
        let draws = self.mix.draw(n.max(1), &mut self.rng);
        let mut dense: HashMap<usize, usize> = HashMap::new();
        let mut batch = Batch {
            items: Vec::with_capacity(draws.len()),
            requests: Vec::new(),
            bodies: Vec::new(),
            repeat_share: repeat_share(draws.iter()),
        };
        for &item in &draws {
            if let Some(&d) = dense.get(&item) {
                batch.items.push(d);
                continue;
            }
            let input = self.mix.item(item);
            let body = match self.expected.entry(item) {
                Entry::Occupied(e) => e.get().clone(),
                Entry::Vacant(e) => e
                    .insert(serve::encode_results(&query(&self.searcher, input)?))
                    .clone(),
            };
            dense.insert(item, batch.requests.len());
            batch.items.push(batch.requests.len());
            batch.requests.push(search_request(&input.body_json()));
            batch.bodies.push(body);
        }
        if fault {
            batch.bodies[0].push(' ');
        }
        Ok(batch)
    }

    /// Drive `server` at `rate` requests/s for `seconds`.
    pub fn run(
        &mut self,
        server: &Server,
        rate: f64,
        seconds: f64,
        fault: bool,
    ) -> Result<RateRun, String> {
        let batch = self.batch((rate * seconds) as usize, fault)?;
        Ok(open_loop(server, rate, &batch))
    }

    /// Drive `server` with `n` requests in a closed loop over
    /// [`WIRE_CONNECTIONS`] connections.
    pub fn run_closed(
        &mut self,
        server: &Server,
        n: u64,
        fault: bool,
    ) -> Result<ClosedWire, String> {
        let batch = self.batch(n as usize, fault)?;
        let (outcomes, secs) = drive_closed(
            server.port(),
            WIRE_CONNECTIONS,
            &batch.items,
            &batch.requests,
            &batch.bodies,
        );
        let mut run = ClosedWire {
            latencies_us: Vec::with_capacity(outcomes.len()),
            qps: outcomes.len() as f64 / secs,
            failed: 0,
        };
        for o in outcomes {
            let latency = match (o.ok, o.sent_ns, o.recv_ns) {
                (true, Some(sent), Some(recv)) => recv.saturating_sub(sent) as f64 / 1e3,
                _ => {
                    run.failed += 1;
                    f64::INFINITY
                }
            };
            run.latencies_us.push(latency);
        }
        Ok(run)
    }
}

/// A batch of wire requests drawn from the mix.
struct Batch {
    /// Index into `requests` and `bodies` of each request, in order.
    items: Vec<usize>,
    /// Request bytes of each distinct item.
    requests: Vec<Vec<u8>>,
    /// Expected body of each distinct item.
    bodies: Vec<String>,
    /// Share of requests repeating an earlier one.
    repeat_share: f64,
}

/// One closed-loop wire slice.
pub struct ClosedWire {
    /// Latency from send to answer, µs (failed requests as +∞).
    pub latencies_us: Vec<f64>,
    /// Requests answered per second.
    pub qps: f64,
    /// Requests that failed (not 200, wrong body, no answer).
    pub failed: u64,
}

/// Send `batch` at `rate` and collect what happened.
fn open_loop(server: &Server, rate: f64, batch: &Batch) -> RateRun {
    let draws = &batch.items;
    let n = draws.len();
    let schedule: Vec<Scheduled> = draws
        .iter()
        .enumerate()
        .map(|(i, &item)| Scheduled {
            due_ns: (i as f64 * 1e9 / rate) as u64,
            item,
            conn: i % WIRE_CONNECTIONS,
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let outcomes = drive(
        server.port(),
        WIRE_CONNECTIONS,
        start,
        &schedule,
        &batch.requests,
        &batch.bodies,
    );
    let mut run = RateRun {
        due: n as u64,
        sent: 0,
        failed: 0,
        latencies_us: Vec::with_capacity(n),
        late_us: Vec::with_capacity(n),
        statuses: HashMap::new(),
        repeat_share: batch.repeat_share,
    };
    for (s, o) in schedule.iter().zip(outcomes) {
        *run.statuses.entry(o.status).or_default() += 1;
        if let Some(sent) = o.sent_ns {
            run.sent += 1;
            run.late_us.push(sent.saturating_sub(s.due_ns) as f64 / 1e3);
        }
        let latency = match (o.ok, o.recv_ns) {
            (true, Some(recv)) => recv.saturating_sub(s.due_ns) as f64 / 1e3,
            _ => {
                run.failed += 1;
                f64::INFINITY
            }
        };
        run.latencies_us.push(latency);
    }
    run
}

/// The server's own counters after a run, from `GET /metrics`.
pub struct ServerCounters {
    /// Mean admission-queue wait per connection, µs.
    pub queue_wait_us: f64,
    /// Requests shed before execution (429).
    pub shed: u64,
    /// Connections refused at the door (503).
    pub rejected: u64,
}

/// Read [`ServerCounters`] from the server.
pub fn server_counters(server: &Server) -> Result<ServerCounters, String> {
    let (status, body) = server.get("/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|e| e.to_string())?;
    let snap = obs::MetricsSnapshot::from_json(&text)?;
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let queue_wait_us = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve.http.queue_wait")
        .map_or(0.0, |h| h.mean / 1e3);
    Ok(ServerCounters {
        queue_wait_us,
        shed: counter("serve.admission.shed_deadline"),
        rejected: counter("serve.admission.shed_queue_full"),
    })
}

fn describe(s: &Summary) -> String {
    format!(
        "p50 {:.1} p99 {:.1} (n={}, {} beyond p99)",
        s.p50, s.p99, s.n, s.beyond_p99
    )
}

/// One wire rate's slices across the rounds.
#[derive(Default)]
struct RateSlices {
    /// Per-round latencies from due time, µs.
    latencies_us: Vec<Vec<f64>>,
    /// Send time minus due time over all rounds, µs.
    late_us: Vec<f64>,
    /// Requests due and sent over all rounds.
    due: u64,
    sent: u64,
    /// Answers by status over all rounds.
    statuses: HashMap<u16, u64>,
    /// Per-round share of requests repeating an earlier one.
    repeat_share: Vec<f64>,
}

impl RateSlices {
    fn add(&mut self, run: RateRun) {
        self.latencies_us.push(run.latencies_us);
        self.late_us.extend(run.late_us);
        self.due += run.due;
        self.sent += run.sent;
        for (status, n) in run.statuses {
            *self.statuses.entry(status).or_default() += n;
        }
        self.repeat_share.push(run.repeat_share);
    }
}

/// Wall time of a run by phase, for the report: each lap charges the
/// time since the previous one to a phase.
struct Laps {
    last: Instant,
    by_phase: Vec<(&'static str, f64)>,
}

impl Laps {
    fn new() -> Self {
        Self {
            last: Instant::now(),
            by_phase: Vec::new(),
        }
    }

    fn lap(&mut self, phase: &'static str) {
        let now = Instant::now();
        let secs = (now - self.last).as_secs_f64();
        self.last = now;
        match self.by_phase.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += secs,
            None => self.by_phase.push((phase, secs)),
        }
    }
}

/// The untraced run.
pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let spec = &args.spec;
    let snapshot_dir = work.join("snapshot");
    let fault = |f: Fault| args.fault == Some(f);
    let mut laps = Laps::new();

    // The first set-up; its artifacts serve the whole run. Each later
    // round opens with another set-up, timed and discarded.
    let mut setup_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut peak_kib = Vec::new();
    let SetUp {
        inputs,
        prepared,
        mut server,
        secs,
    } = set_up(args, work)?;
    setup_s.push(secs);
    laps.lap("set-up");
    let mut fresh = prepared.map(|p| {
        prepare_s.push(p.secs);
        peak_kib.push(p.peak_kib);
        p.snapshot
    });
    let stream = NoRepeat::new(inputs.texts.clone(), args.seed);
    let closed_ops = closed_loop_ops(spec, args.seconds);
    if closed_ops > stream.len() {
        return Err(format!(
            "the closed-loop mix holds {} queries but {} seconds need {closed_ops}",
            stream.len(),
            args.seconds
        ));
    }
    let first = stream.input(0).ok_or("empty mix")?;
    let repeat_dir = work.join("setup-repeat");

    // Rounds: a set-up (from the second round on), a lifecycle cycle
    // (prepare + save unless set-up did, then a warm start), a closed-loop slice, a slice of each wire rate and
    // a closed-loop wire slice. The wire phase's time is split in three.
    let wire_s = spec.wire_share * args.seconds / 3.0;
    let each = wire_s / ROUNDS as f64;
    let wire_closed_ops = (wire_s * spec.wire_closed_qps).ceil() as u64;
    let mut warm_s = Vec::new();
    let mut bytes = 0;
    let mut warm = None;
    let mut reference = Vec::new();
    let mut lifecycle_check = (0, 0);
    let mut closed = Vec::new();
    let mut client = None;
    let mut wire: [RateSlices; 2] = Default::default();
    let mut wire_closed = Vec::new();
    for round in 0..ROUNDS {
        if round > 0 {
            let dir = WorkDir::new(repeat_dir.clone())?;
            let again = set_up(args, dir.path())?;
            setup_s.push(again.secs);
            if let Some(p) = again.prepared {
                prepare_s.push(p.secs);
                peak_kib.push(p.peak_kib);
            }
            if let Some(s) = again.server {
                s.stop()?;
            }
            drop(dir);
            laps.lap("set-up");
        }
        // Drop the previous cycle's snapshots before building new ones.
        drop(warm.take());
        if !spec.prepare_in_setup {
            drop(fresh.take());
            let prepared = prepare_and_save(&inputs, &snapshot_dir)?;
            prepare_s.push(prepared.secs);
            peak_kib.push(prepared.peak_kib);
            fresh = Some(prepared.snapshot);
        }
        bytes = dir_bytes(&snapshot_dir)?;
        for _ in 0..WARM_STARTS_PER_ROUND {
            drop(warm.take());
            let (snapshot, secs) = warm_start(&snapshot_dir, &first)?;
            warm_s.push(secs);
            report.ops(1, 0);
            warm = Some(snapshot);
        }
        let searcher = warm.as_ref().expect("warm-started").searcher();
        laps.lap("lifecycle");
        if round == 0 {
            // Checks against the fresh snapshot, and the closed loop's
            // single-threaded reference; not timed.
            let fresh = fresh.as_ref().expect("prepared").searcher();
            lifecycle_check =
                check_warm_against_fresh(&fresh, &searcher, &stream, fault(Fault::Lifecycle))?;
            report.ops(CHECK_MIX, lifecycle_check.0);
            reference = reference_digests(&fresh, &stream, closed_ops, fault(Fault::Closed))?;
            laps.lap("checks");
        }

        // Two slices of each closed loop per round, one on each side of
        // the open loop, so the means over slices and segments take in
        // twice as many points of the run's time.
        let slice_of = |total: u64, part: u64| {
            let k = SLICES_PER_ROUND * round + part;
            let n = SLICES_PER_ROUND * ROUNDS;
            total * k / n..total * (k + 1) / n
        };
        let slice = closed_loop(&searcher, &stream, &reference, slice_of(closed_ops, 0))?;
        report.ops(slice.latencies_us.len() as u64, slice.failed);
        closed.push(slice);
        laps.lap("closed loop");

        if server.is_none() {
            server = Some(Server::start(&args.litsearch, &snapshot_dir, work)?);
        }
        let server = server.as_ref().expect("started");
        let client = client
            .get_or_insert_with(|| WireClient::new(searcher.clone(), &inputs.texts, args.seed));
        // Warm the server's caches and cost estimate; checked, not timed.
        let warmup = client.run(server, spec.rates[0], WIRE_WARMUP_S, false)?;
        report.ops(warmup.due, warmup.failed);
        let n = slice_of(wire_closed_ops, 0).count() as u64;
        let slice = client.run_closed(server, n, false)?;
        report.ops(n, slice.failed);
        wire_closed.push(slice);
        for (slices, rate) in wire.iter_mut().zip(spec.rates) {
            let run = client.run(server, rate, each, fault(Fault::Wire) && round == 0)?;
            report.ops(run.due, run.failed);
            slices.add(run);
        }
        let n = slice_of(wire_closed_ops, 1).count() as u64;
        let slice = client.run_closed(server, n, false)?;
        report.ops(n, slice.failed);
        wire_closed.push(slice);
        laps.lap("wire");

        let slice = closed_loop(&searcher, &stream, &reference, slice_of(closed_ops, 1))?;
        report.ops(slice.latencies_us.len() as u64, slice.failed);
        closed.push(slice);
        laps.lap("closed loop");
    }
    let server = server.expect("started");
    let server_hwm_kib = vm_hwm_kib(server.pid()).ok_or("no VmHWM for the server")?;
    let counters = server_counters(&server)?;
    server.stop()?;
    drop((warm, fresh));
    laps.lap("wire");

    let peak_mib: Vec<f64> = peak_kib.iter().map(|&k| k as f64 / 1024.0).collect();
    report.note(format!(
        "set-up x{}: {setup_s:.3?} s | {} concept texts, {} closed-loop inputs",
        setup_s.len(),
        inputs.texts.len(),
        stream.len()
    ));
    report.note(format!(
        "lifecycle: prepare+save {prepare_s:.3?} s, VmHWM after each {peak_mib:.1?} MiB | warm start {warm_s:.3?} s | {bytes} bytes | warm == fresh on {CHECK_MIX} inputs: {} mismatches | results digest {:016x}",
        lifecycle_check.0, lifecycle_check.1
    ));

    let closed_slices: Vec<Vec<f64>> = closed.iter().map(|c| c.latencies_us.clone()).collect();
    let (query_slices, _, _) = over_slices(&closed_slices);
    let closed_segments = segments(&closed_slices, SEGMENT_MIN, SEGMENTS_PER_SLICE);
    let (_, query_p50, query_p99) = over_slices(&closed_segments);
    let qps: Vec<f64> = closed.iter().map(|c| c.qps).collect();
    let failed: u64 = closed.iter().map(|c| c.failed).sum();
    let long: Vec<f64> = closed.iter().map(|c| c.long_share).collect();
    let repeats: Vec<f64> = closed.iter().map(|c| c.repeat_share).collect();
    report.note(format!(
        "closed loop ({CLIENT_THREADS} threads, {closed_ops} queries in {} slices, {} segments): {} | per slice: p50 {:.1?} p99 {:.1?} q/s {:.0?} | over segments: p50 {query_p50:.1} (trimmed mean) p99 {query_p99:.1} (median) | mix.long_query_share {long:.3?} mix.repeat_share {repeats:.3?} | {failed} mismatches vs single-threaded reference",
        closed.len(),
        closed_segments.len(),
        describe(&summarize(&mut closed_slices.concat())),
        query_slices.iter().map(|s| s.p50).collect::<Vec<_>>(),
        query_slices.iter().map(|s| s.p99).collect::<Vec<_>>(),
        qps
    ));

    for (slices, rate) in wire.iter_mut().zip(spec.rates) {
        let (summaries, p50, p99) = over_slices(&slices.latencies_us);
        let late = summarize(&mut slices.late_us);
        let mut statuses: Vec<_> = slices.statuses.iter().collect();
        statuses.sort();
        let validity = if late.p50 > MAX_LATE_P50_US || slices.sent < slices.due {
            "INVALID (load generator behind schedule)"
        } else {
            "valid"
        };
        report.note(format!(
            "wire {rate} req/s, {validity}: {} | per slice: p50 {:.1?} p99 {:.1?} | over slices: p50 {p50:.1} (trimmed mean) p99 {p99:.1} (median) | loadgen.late {} | loadgen.sent {}/{} due | mix.repeat_share {:.3?} | statuses {statuses:?}",
            describe(&summarize(&mut slices.latencies_us.concat())),
            summaries.iter().map(|s| s.p50).collect::<Vec<_>>(),
            summaries.iter().map(|s| s.p99).collect::<Vec<_>>(),
            describe(&late),
            slices.sent,
            slices.due,
            slices.repeat_share
        ));
    }
    let closed_slices: Vec<Vec<f64>> = wire_closed.iter().map(|c| c.latencies_us.clone()).collect();
    let (closed_summaries, _, _) = over_slices(&closed_slices);
    let wire_segments = segments(&closed_slices, SEGMENT_MIN, SEGMENTS_PER_SLICE);
    let (_, wire_closed_p50, _) = over_slices(&wire_segments);
    let wire_qps: Vec<f64> = wire_closed.iter().map(|c| c.qps).collect();
    report.note(format!(
        "wire closed loop ({WIRE_CONNECTIONS} connections, {wire_closed_ops} requests in {} slices, {} segments): {} | per slice: p50 {:.1?} q/s {:.0?} | {} failed",
        wire_closed.len(),
        wire_segments.len(),
        describe(&summarize(&mut closed_slices.concat())),
        closed_summaries.iter().map(|s| s.p50).collect::<Vec<_>>(),
        wire_qps,
        wire_closed.iter().map(|c| c.failed).sum::<u64>()
    ));
    report.note(format!(
        "server: peak RSS {server_hwm_kib} KiB | queue wait mean {:.1} µs | shed {} | rejected {}",
        counters.queue_wait_us, counters.shed, counters.rejected
    ));

    report.note(format!(
        "wall time by phase: {}",
        laps.by_phase
            .iter()
            .map(|(phase, secs)| format!("{phase} {secs:.1} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.metric("setup_s", trimmed_mean(&setup_s), "s");
    report.metric("prepare_s", trimmed_mean(&prepare_s), "s");
    report.metric("snapshot_bytes", bytes as f64, "bytes");
    report.metric("warm_start_s", trimmed_mean(&warm_s), "s");
    // The first prepare's peak; after later ones `VmHWM` also holds
    // what earlier cycles left resident.
    report.metric("peak_rss_mb", peak_mib[0], "MiB");
    report.metric("server_rss_mb", server_hwm_kib as f64 / 1024.0, "MiB");
    report.metric("query_p50_us", query_p50, "us");
    report.metric("query_qps", trimmed_mean(&qps), "1/s");
    report.metric("wire_closed_p50_us", wire_closed_p50, "us");
    Ok(())
}
