//! `serve_warm`: the interactive path, `stamp serve` on a warm store.
//!
//! A store is primed with the `variant_sweep` matrix. Each session
//! copies it, starts `stamp serve --socket … --store COPY --jobs 2` on
//! the pristine copy, and drives it from two closed-loop client
//! connections: each sends its next request when the previous answer
//! arrives. About 80% of the requests re-ask primed (target, variant)
//! pairs (reads, answered from the store); the rest ask primed targets
//! at unprimed cache sizes (writes: cache, pipeline and path are
//! recomputed and appended to the log). Every write pair is asked once
//! per session, so a write never turns into a read.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::Rng;
use stamp_core::{run_batch, run_batch_with, ArtifactStore, BatchJob, JobResult, Json};

use crate::common::{self, median, ms, percentile, Outcome, StoreReading, WORKERS};
use crate::sweep::{self, Matrix};
use crate::trace::Tracer;

/// The unprimed cache sizes of the write share.
const WRITE_VARIANTS: &[&str] = &[
    r#"{"name": "cache256", "hw": {"cache_bytes": 256}}"#,
    r#"{"name": "cache512", "hw": {"cache_bytes": 512}}"#,
    r#"{"name": "cache1024", "hw": {"cache_bytes": 1024}}"#,
    r#"{"name": "cache2048", "hw": {"cache_bytes": 2048}}"#,
];

/// Reads per write (80% / 20%).
const READS_PER_WRITE: usize = 4;
/// Client connections, each a closed loop.
const CLIENTS: usize = 2;
/// Longest wait for one answer before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of a session.
struct Req {
    line: String,
    job: String,
    write: bool,
}

/// What one request measured.
struct Sample {
    idx: usize,
    sent: Instant,
    answered: Instant,
    line: String,
}

/// A started daemon; killed and reaped if dropped before `drain`.
struct Daemon {
    child: Option<Child>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

impl Daemon {
    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// SIGTERM (the daemon drains admitted jobs, flushes its store and
    /// exits 0), then wait for the exit. On any error the daemon is
    /// killed and reaped by `Drop`.
    fn drain(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.pid()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` only sends a signal; it has no memory-safety
        // preconditions. The pid belongs to a child this process has not
        // reaped yet, so it cannot have been reused by another process.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err(format!("SIGTERM to the daemon: {}", std::io::Error::last_os_error()));
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let child = self.child.as_mut().expect("daemon is running");
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => {
                    self.child = None;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                None if Instant::now() > deadline => {
                    return Err("daemon did not drain within 60 s".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// Everything a session needs, built once per run.
struct Plan {
    matrix: Matrix,
    primed: PathBuf,
    requests: Vec<Req>,
    /// The `run_batch` result of every job a session asks, by job name.
    results: HashMap<String, JobResult>,
    write_jobs: Vec<BatchJob>,
    primed_records: usize,
    primed_bytes: u64,
}

fn request_line(id: usize, target: &Json, variant: &Json) -> String {
    Json::obj([
        ("id", Json::str(format!("r{id}"))),
        ("job", target.clone()),
        ("variant", variant.clone()),
    ])
    .to_string()
}

/// Primes the store, computes reference results and builds the
/// session's request sequence.
fn plan(seed: u64, work: &Path, trace: &mut Tracer) -> Result<Plan, String> {
    let matrix = sweep::matrix(seed, sweep::VARIANTS, trace)?;
    let primed = work.join("primed");
    std::fs::create_dir_all(&primed).map_err(|e| format!("{}: {e}", primed.display()))?;
    let (store, _) = ArtifactStore::with_disk(&primed).map_err(|e| format!("prime store: {e}"))?;
    let primed_report =
        run_batch_with(&matrix.request, WORKERS, &store).map_err(|e| e.to_string())?;
    store.flush_disk();
    if let Some(w) = store.take_disk_warning() {
        return Err(format!("prime store: {w}"));
    }
    let primed_records = store.disk_artifact_count();
    drop(store);
    let primed_bytes = sweep::dir_bytes(&primed);

    let write_variants: Vec<Json> = WRITE_VARIANTS
        .iter()
        .map(|v| Json::parse(v).expect("write variants are valid JSON"))
        .collect();
    let write_request = sweep::request_for(&matrix.targets, &write_variants)?;
    let write_report = run_batch(&write_request, WORKERS).map_err(|e| e.to_string())?;

    let mut results = HashMap::new();
    for r in primed_report.results.iter().chain(&write_report.results) {
        if !r.is_ok() {
            return Err(format!("reference job {} failed: {:?}", r.name, r.error));
        }
        results.insert(r.name.clone(), r.clone());
    }

    // Writes: every (target, unprimed size) pair once. Reads: primed
    // pairs drawn with replacement. Shuffled together.
    let mut rng = common::rng_for("serve_warm", seed);
    let mut pairs: Vec<(usize, usize, bool)> = Vec::new();
    for t in 0..matrix.targets.len() {
        for v in 0..write_variants.len() {
            pairs.push((t, v, true));
        }
    }
    let reads = pairs.len() * READS_PER_WRITE;
    for _ in 0..reads {
        let t = rng.gen_range(0..matrix.targets.len());
        let v = rng.gen_range(0..matrix.variants.len());
        pairs.push((t, v, false));
    }
    for i in (1..pairs.len()).rev() {
        let j = rng.gen_range(0..=i);
        pairs.swap(i, j);
    }
    let requests = pairs
        .iter()
        .enumerate()
        .map(|(id, &(t, v, write))| {
            let target = &matrix.targets[t].json;
            let variant = if write { &write_variants[v] } else { &matrix.variants[v] };
            // Jobs are laid out targets-outermost (`BatchRequest::matrix`).
            let job = if write {
                &write_request.jobs[t * write_variants.len() + v]
            } else {
                &matrix.request.jobs[t * matrix.variants.len() + v]
            };
            Req { line: request_line(id, target, variant), job: job.name(), write }
        })
        .collect();
    Ok(Plan {
        matrix,
        primed,
        requests,
        results,
        write_jobs: write_request.jobs,
        primed_records,
        primed_bytes,
    })
}

/// Copies the primed store into a fresh directory.
fn pristine_copy(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    let s =
        UnixStream::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    s.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Sends one line and reads the answer.
fn ask(
    stream: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    line: &str,
) -> Result<String, String> {
    stream.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
    stream.write_all(b"\n").map_err(|e| format!("send: {e}"))?;
    let mut answer = String::new();
    match reader.read_line(&mut answer) {
        Ok(0) => Err("daemon closed the connection".to_string()),
        Ok(_) => Ok(answer.trim_end().to_string()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// One session's measurements.
struct Session {
    setup_s: f64,
    loop_s: f64,
    samples: Vec<Sample>,
    stats: Option<Json>,
    rss_mb: f64,
}

/// Starts the daemon on a pristine copy, drives the request sequence,
/// reads the stats and the daemon's peak RSS, drains it and deletes the
/// copy.
fn session(
    stamp: &Path,
    plan: &Plan,
    work: &Path,
    index: usize,
    want_stats: bool,
) -> Result<Session, String> {
    let dir = work.join(format!("session-{index}"));
    pristine_copy(&plan.primed, &dir)?;
    // A relative socket path keeps it under the 108-byte limit wherever
    // the checkout lives.
    let socket = work.join(format!("s{index}.sock"));
    let log = std::fs::File::create(work.join(format!("daemon-{index}.log")))
        .map_err(|e| e.to_string())?;

    let t = Instant::now();
    let child = Command::new(stamp)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--store")
        .arg(&dir)
        .args(["--jobs", &WORKERS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("start {}: {e}", stamp.display()))?;
    let daemon = Daemon { child: Some(child) };
    let mut first = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(_) if t.elapsed() < Duration::from_secs(60) => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(e) => return Err(format!("daemon did not listen within 60 s: {e}")),
        }
    };
    first.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut first_reader = BufReader::new(first.try_clone().map_err(|e| e.to_string())?);
    let pong = ask(&mut first, &mut first_reader, r#"{"id": "ping", "op": "ping"}"#)?;
    let setup_s = t.elapsed().as_secs_f64();
    if !pong.contains(r#""status":"ok""#) {
        return Err(format!("ping answered `{pong}`"));
    }

    let mut conns = vec![(first, first_reader)];
    while conns.len() < CLIENTS {
        let s = connect(&socket)?;
        let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        conns.push((s, r));
    }

    let next = AtomicUsize::new(0);
    let requests = &plan.requests;
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|(stream, reader)| {
                let next = &next;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(idx) else { return Ok(got) };
                        let sent = Instant::now();
                        let line = ask(stream, reader, &req.line)?;
                        got.push(Sample { idx, sent, answered: Instant::now(), line });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    let loop_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.idx);

    let stats = if want_stats {
        let (stream, reader) = &mut conns[0];
        let answer = ask(stream, reader, r#"{"id": "stats", "op": "stats"}"#)?;
        let doc = Json::parse(&answer).map_err(|e| format!("stats answer: {e}"))?;
        Some(doc.get("stats").cloned().ok_or("stats answer has no `stats`")?)
    } else {
        None
    };
    let rss_mb = common::peak_rss_mb(&daemon.pid().to_string())?;
    drop(conns);
    daemon.drain()?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(Session { setup_s, loop_s, samples, stats, rss_mb })
}

/// Sessions until `seconds` of request-loop time have accumulated
/// (three at least, for a median set-up time). With tracing on,
/// untraced and traced sessions alternate, each kind getting `seconds`.
fn sessions(
    stamp: &Path,
    plan: &Plan,
    work: &Path,
    seconds: f64,
    trace: &mut Tracer,
) -> Result<(Vec<Session>, Vec<Session>), String> {
    let (mut plain, mut traced): (Vec<Session>, Vec<Session>) = (Vec::new(), Vec::new());
    let total = |ss: &[Session]| ss.iter().map(|s| s.loop_s).sum::<f64>();
    let short = |ss: &[Session]| ss.len() < 3 || total(ss) < seconds;
    while short(&plain) || (trace.is_on() && short(&traced)) {
        let n = plain.len() + traced.len();
        plain.push(session(stamp, plan, work, n, false)?);
        if trace.is_on() {
            let s = session(stamp, plan, work, n + 1, traced.is_empty())?;
            for sample in &s.samples {
                let (from, to) = (trace.at(sample.sent), trace.at(sample.answered));
                trace.record("request", sample.idx as u64, None, from, to);
            }
            traced.push(s);
        }
    }
    Ok((plain, traced))
}

/// A parsed answer.
struct Answer {
    latency_ms: f64,
    ok: bool,
    status: String,
    queue_ms: f64,
    service_ms: f64,
    write: bool,
}

/// Parses every answer and checks each `ok` result byte for byte
/// against the `run_batch` result of the same job.
fn answers(plan: &Plan, sessions: &[Session], out: &mut Outcome) -> Vec<Answer> {
    let mut all = Vec::new();
    for s in sessions {
        for sample in &s.samples {
            let req = &plan.requests[sample.idx];
            let doc = Json::parse(&sample.line).ok();
            let field =
                |k: &str| doc.as_ref().and_then(|d| d.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
            let status = doc
                .as_ref()
                .and_then(|d| d.get("status"))
                .and_then(Json::as_str)
                .unwrap_or("unparseable")
                .to_string();
            let mut ok = status == "ok";
            if ok {
                let expected = plan.results[&req.job].result_json().to_string();
                let identical = sample.line.find("\"result\":").is_some_and(|at| {
                    sample.line[at + "\"result\":".len()..].starts_with(expected.as_str())
                });
                if !identical {
                    out.problem(format!("served result for {} differs from run_batch", req.job));
                    ok = false;
                }
            } else {
                out.problem(format!("request for {} answered `{status}`", req.job));
            }
            all.push(Answer {
                latency_ms: ms(sample.answered - sample.sent),
                ok,
                status,
                queue_ms: field("queue_ms"),
                service_ms: field("wall_ms"),
                write: req.write,
            });
        }
    }
    all
}

pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    stamp: &Path,
    trace: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !stamp.is_file() {
        return Err(format!("no `stamp` binary at {}", stamp.display()));
    }
    let plan = plan(seed, work, trace)?;

    let (plain, traced) = sessions(stamp, &plan, work, seconds, trace)?;
    let plain_answers = answers(&plan, &plain, &mut out);
    let traced_answers = answers(&plan, &traced, &mut out);
    for a in plain_answers.iter().chain(&traced_answers) {
        out.attempted += 1;
        if !a.ok {
            out.failed += 1;
        }
    }

    let loop_s: f64 = plain.iter().map(|s| s.loop_s).sum();
    let lat: Vec<f64> = plain_answers.iter().map(|a| a.latency_ms).collect();
    // `ok` answers per second of the median session's request loop:
    // robust to a session a noisy neighbour slows down.
    let ok = plain_answers.iter().filter(|a| a.ok).count();
    let session_s = median(&plain.iter().map(|s| s.loop_s).collect::<Vec<_>>());
    out.e2e("throughput_per_s", ok as f64 / plain.len() as f64 / session_s, "1/s");
    out.e2e("latency_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("latency_p90_ms", percentile(&lat, 90.0), "ms");
    out.e2e("latency_p99_ms", percentile(&lat, 99.0), "ms");
    out.e2e("setup_s", median(&plain.iter().map(|s| s.setup_s).collect::<Vec<_>>()), "s");
    out.e2e("peak_rss_mb", median(&plain.iter().map(|s| s.rss_mb).collect::<Vec<_>>()), "MB");
    let writes = plan.requests.iter().filter(|r| r.write).count();
    out.notes.push(format!(
        "serve_warm: {} sessions x {} requests ({writes} writes) from {CLIENTS} closed-loop clients in {loop_s:.2} s; \
         primed store {} records, {:.1} MB",
        plain.len(),
        plan.requests.len(),
        plan.primed_records,
        plan.primed_bytes as f64 / 1e6
    ));
    let how = format!("every request of {} sessions", plain.len());
    out.notes.push(common::latency_note("request latency", &lat, &how));

    if trace.is_on() {
        traced_layers(&plan, &plain, &traced, &traced_answers, work, trace, &mut out)?;
    }
    Ok(out)
}

fn traced_layers(
    plan: &Plan,
    plain: &[Session],
    traced: &[Session],
    answers: &[Answer],
    work: &Path,
    trace: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let pick =
        |f: &dyn Fn(&Answer) -> Option<f64>| -> Vec<f64> { answers.iter().filter_map(f).collect() };
    let ok = |a: &Answer| a.ok;
    out.layer("serve.queue_ms_p50", median(&pick(&|a| ok(a).then_some(a.queue_ms))));
    out.layer("serve.queue_ms_p99", percentile(&pick(&|a| ok(a).then_some(a.queue_ms)), 99.0));
    out.layer("serve.service_ms_p50", median(&pick(&|a| ok(a).then_some(a.service_ms))));
    out.layer("serve.service_ms_p99", percentile(&pick(&|a| ok(a).then_some(a.service_ms)), 99.0));
    out.layer(
        "serve.wire_ms_p50",
        median(&pick(&|a| ok(a).then_some(a.latency_ms - a.queue_ms - a.service_ms))),
    );
    out.layer("serve.read_latency_p50_ms", median(&pick(&|a| (!a.write).then_some(a.latency_ms))));
    out.layer("serve.write_latency_p50_ms", median(&pick(&|a| a.write.then_some(a.latency_ms))));
    out.layer(
        "serve.overloaded",
        answers.iter().filter(|a| a.status == "overloaded").count() as f64,
    );
    out.layer("serve.timeouts", answers.iter().filter(|a| a.status == "timeout").count() as f64);
    out.layer("exec.job_ms_p50", median(&pick(&|a| ok(a).then_some(a.service_ms))));
    let traced_loop: f64 = traced.iter().map(|s| s.loop_s).sum();
    let service: f64 = answers.iter().map(|a| a.service_ms).sum();
    out.layer("exec.busy_share", service / (WORKERS as f64 * traced_loop * 1e3));
    let per_request = |ss: &[Session]| {
        ss.iter().map(|s| s.loop_s).sum::<f64>()
            / ss.iter().map(|s| s.samples.len()).sum::<usize>() as f64
    };
    out.layer("trace.overhead_share", per_request(traced) / per_request(plain) - 1.0);
    if let Some(stats) = traced.first().and_then(|s| s.stats.as_ref()) {
        out.store_layers(&StoreReading::from_json(stats));
    }

    // The durable store's read path, in process: open pristine copies.
    let mut open_ms = Vec::new();
    let mut store = None;
    for i in 0..3 {
        let dir = work.join(format!("open-{i}"));
        pristine_copy(&plan.primed, &dir)?;
        let t = Instant::now();
        let (s, _) =
            ArtifactStore::with_disk(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        open_ms.push(ms(t.elapsed()));
        if s.disk_artifact_count() != plan.primed_records {
            out.problem(format!(
                "reopened store holds {} records, primed {}",
                s.disk_artifact_count(),
                plan.primed_records
            ));
        }
        store = Some((s, dir));
    }
    out.layer("store_disk.open_ms", median(&open_ms));
    out.layer("store_disk.records", plan.primed_records as f64);
    out.layer("store_disk.log_mb", plan.primed_bytes as f64 / 1e6);

    // Layer pass: the session's request sequence, serially, through a
    // store opened from the primed copy; phase times from the reports.
    let (store, _) = store.expect("opened three copies");
    let by_name: HashMap<String, &BatchJob> =
        plan.matrix.request.jobs.iter().chain(&plan.write_jobs).map(|j| (j.name(), j)).collect();
    let jobs: Vec<&BatchJob> = plan.requests.iter().map(|r| by_name[&r.job]).collect();
    let c = sweep::layer_pass(&jobs, &plan.matrix.programs, &store, &plan.results, trace, out);
    common::layer_metrics(out, trace, jobs.len(), plan.matrix.programs.len(), &c);
    drop(store);
    for i in 0..3 {
        let _ = std::fs::remove_dir_all(work.join(format!("open-{i}")));
    }
    Ok(())
}
