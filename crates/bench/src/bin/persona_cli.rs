//! `persona-cli` — the wire-protocol client harness: drive a
//! `WireServer` over TCP and measure what the network front end costs
//! relative to in-process submission.
//!
//! Default mode is a self-contained loopback benchmark: it starts a
//! `WireServer` on an ephemeral loopback port, runs the same job mix
//! through the in-process `PersonaService` and through N concurrent
//! `WireClient`s across two tenants, verifies every wire job completed
//! with the expected read count, and writes a machine-readable
//! `BENCH_wire.json` (CI uploads it alongside `BENCH_fused.json`).
//! The paper's overhead claim (§5.2: ≤1 % framework overhead) is the
//! target this trajectory tracks for the service path.
//!
//! Run: `cargo run -p persona-bench --release --bin persona-cli -- \
//!           [--plan <full|import-only|import-align|no-dupmark|from-aligned>] \
//!           [--clients N] [--jobs-per-client M]`
//! Other modes:
//!   `--serve ADDR`  host a wire server over a synthetic world (for
//!                   driving from another process/machine)
//!   `--addr ADDR`   benchmark against an already-running server
//!                   (skips the in-process baseline)
//!   `--wal-bench`   measure the durable service's write-ahead journal
//!                   under each fsync policy (always / batch / never)
//!                   and write `BENCH_wal.json` — the cost of the
//!                   durability guarantee, record by record
//!   `--cache-bench` measure the plan-aware result cache: a cold full
//!                   run versus a full run whose import+align prefix
//!                   is already cached, byte-identity checked, and
//!                   write `BENCH_cache.json`
//!   `--cache N`     enable the result cache (capacity N entries) on
//!                   the service this process hosts (`--serve` or the
//!                   loopback benchmark server)
//!   `soak`          drive ≥1024 concurrent *pipelined* v2 connections
//!                   (`--connections N` to change the count) of mixed
//!                   submit/status/cancel/attach traffic across two
//!                   tenants against a loopback server from a bounded
//!                   worker pool; verifies v1-vs-v2 byte identity,
//!                   records p50/p95/p99 op latency plus peak-RSS and
//!                   thread-count proxies from `/proc/self/status`,
//!                   and writes the point into `BENCH_wire.json`
//!
//! Introspection subcommands (all need `--addr ADDR`):
//!   `stats [--watch]`   fetch and render the server's live metrics
//!                       registry (counters, gauges, latency
//!                       histograms); `--watch` repolls every second
//!   `trace <job-id>`    fetch one job's span trace as
//!                       Chrome-`trace_event` JSON on stdout (load it
//!                       in `chrome://tracing` / Perfetto)
//!   `cache`             fetch the server's result-cache counters
//!                       (hits, misses, evictions, entries, saved ns)
//!                       as greppable `cache <name> = <value>` lines
//! Knobs: `PERSONA_BENCH_SCALE` (dataset size).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage, PRESET_NAMES};
use persona::runtime::PersonaRuntime;
use persona::wire::{SubmitInput, WireClient, WireJobStatus, WireSubmit};
use persona_agd::manifest::Manifest;
use persona_bench::{mem_store, print_header, scale, write_bench_json, World};
use persona_dataflow::Priority;
use persona_formats::fastq;
use persona_server::journal::{
    FsyncPolicy, Journal, JournalConfig, JournalRecord, RecordedInput, TerminalStatus,
};
use persona_server::{
    JobInput, JobSpec, PersonaService, ServiceConfig, TenantConfig, WireServer, WireServerConfig,
};

/// A live-introspection subcommand (`stats` / `trace <job-id>`).
enum Introspect {
    /// Fetch and render the server's metrics registry.
    Stats {
        /// Repoll every second instead of one shot.
        watch: bool,
    },
    /// Fetch one job's span trace as Chrome-`trace_event` JSON.
    Trace {
        /// The job whose trace to fetch.
        job_id: u64,
    },
    /// Fetch the server's result-cache counters.
    Cache,
}

struct Args {
    plan_name: String,
    clients: usize,
    jobs_per_client: usize,
    serve: Option<String>,
    addr: Option<String>,
    wal_bench: bool,
    cache_bench: bool,
    cache_capacity: usize,
    soak: bool,
    connections: usize,
    introspect: Option<Introspect>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        plan_name: "full".to_string(),
        clients: 4,
        jobs_per_client: 2,
        serve: None,
        addr: None,
        wal_bench: false,
        cache_bench: false,
        cache_capacity: 0,
        soak: false,
        connections: 1024,
        introspect: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "stats" => parsed.introspect = Some(Introspect::Stats { watch: false }),
            "trace" => {
                let id = value("trace").parse().expect("trace needs a numeric job id");
                parsed.introspect = Some(Introspect::Trace { job_id: id });
            }
            "--watch" => match &mut parsed.introspect {
                Some(Introspect::Stats { watch }) => *watch = true,
                _ => panic!("--watch only applies to the `stats` subcommand"),
            },
            "--plan" => parsed.plan_name = value("--plan"),
            "--clients" => parsed.clients = value("--clients").parse().expect("--clients"),
            "--jobs-per-client" => {
                parsed.jobs_per_client = value("--jobs-per-client").parse().expect("--jobs")
            }
            "--serve" => parsed.serve = Some(value("--serve")),
            "--addr" => parsed.addr = Some(value("--addr")),
            "--wal-bench" => parsed.wal_bench = true,
            "--cache-bench" => parsed.cache_bench = true,
            "cache" => parsed.introspect = Some(Introspect::Cache),
            "--cache" => {
                parsed.cache_capacity = value("--cache").parse().expect("--cache")
            }
            "soak" => parsed.soak = true,
            "--connections" => {
                parsed.connections = value("--connections").parse().expect("--connections")
            }
            other => panic!(
                "unknown argument `{other}` (try stats [--watch] | trace JOB_ID | cache | soak [--connections N] | --plan <{}> | --clients N | --jobs-per-client M | --serve ADDR | --addr ADDR | --wal-bench | --cache-bench | --cache N)",
                PRESET_NAMES.join("|")
            ),
        }
    }
    parsed
}

/// Connects to a server, turning an unreachable address into a typed
/// one-line diagnostic and exit status 2 — never a panic backtrace
/// over a raw `io::Error`.
fn connect_checked(addr: impl std::net::ToSocketAddrs + std::fmt::Display) -> WireClient {
    match WireClient::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("persona-cli: cannot connect to {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// `persona-cli stats [--watch] --addr ADDR`: renders the server's
/// metrics registry. Latency histograms print count/mean/p50/p95/p99.
fn stats_command(addr: &str, watch: bool) {
    let mut client = connect_checked(addr);
    loop {
        let snapshot = match client.metrics() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("persona-cli: metrics request failed: {e}");
                std::process::exit(2);
            }
        };
        println!("=== metrics @ {addr} ===");
        for (name, v) in &snapshot.counters {
            println!("counter    {name} = {v}");
        }
        for (name, v) in &snapshot.gauges {
            println!("gauge      {name} = {v}");
        }
        for (name, h) in &snapshot.histograms {
            println!(
                "histogram  {name}: count={} mean={:.0} p50={} p95={} p99={}",
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
        if !watch {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
        println!();
    }
}

/// `persona-cli trace JOB_ID --addr ADDR`: dumps one job's span trace
/// as Chrome-`trace_event` JSON on stdout.
fn trace_command(addr: &str, job_id: u64) {
    let mut client = connect_checked(addr);
    match client.trace(job_id) {
        Ok(json) => print!("{json}"),
        Err(e) => {
            eprintln!("persona-cli: trace request failed: {e}");
            std::process::exit(2);
        }
    }
}

/// `persona-cli cache --addr ADDR`: fetches the server's result-cache
/// counters as greppable `cache <name> = <value>` lines (CI asserts on
/// them after the cache demo).
fn cache_command(addr: &str) {
    let mut client = connect_checked(addr);
    let stats = match client.cache_stats() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("persona-cli: cache-stats request failed: {e}");
            std::process::exit(2);
        }
    };
    println!("=== cache @ {addr} ===");
    println!("cache enabled = {}", stats.enabled);
    println!("cache hits = {}", stats.hits);
    println!("cache misses = {}", stats.misses);
    println!("cache evictions = {}", stats.evictions);
    println!("cache insertions = {}", stats.insertions);
    println!("cache entries = {}", stats.entries);
    println!("cache pinned = {}", stats.pinned);
    println!("cache capacity = {}", stats.capacity);
    println!("cache reuse_saved_ns = {}", stats.reuse_saved_ns);
}

/// The result-cache trajectory: a cold `full` run versus a `full` run
/// whose import+align prefix is already cached (the ISSUE scenario:
/// `import-align` first, then the overlapping `full`), byte-identity
/// checked, written to `BENCH_cache.json`.
fn cache_bench() {
    use persona::caching::{Digest, ResultCache};
    use persona::runtime::JobContext;

    let sc = scale();
    let reads = ((4_000.0 * sc) as usize).max(200);
    let world = World::build((120_000.0 * sc as f64).max(40_000.0) as usize, reads, 71);
    let fastq_bytes = fastq::to_bytes(&world.reads);
    let digest = Digest::of_bytes(&fastq_bytes);
    let request = |name: &str| PlanRequest {
        name: name.into(),
        source: PlanSource::fastq_bytes(fastq_bytes.clone()),
        chunk_size: 2_000,
        aligner: Some(world.snap_aligner()),
        reference: world.reference.clone(),
    };

    // Cold reference: the full plan on a fresh world, no cache.
    let rt_cold = PersonaRuntime::new(mem_store(), PersonaConfig::default()).unwrap();
    let t0 = Instant::now();
    let cold = Plan::full().run(&rt_cold, request("cold")).expect("cold run");
    let cold_s = t0.elapsed().as_secs_f64();

    // Warm path: land the import+align prefix, then run the
    // overlapping full plan against the populated cache.
    let cache = Arc::new(ResultCache::new(32));
    let rt = PersonaRuntime::new(mem_store(), PersonaConfig::default())
        .unwrap()
        .for_job(JobContext::new(Priority::Normal).with_cache(cache.clone(), digest));
    let t0 = Instant::now();
    let prep = Plan::import_align().run(&rt, request("prefix")).expect("prefix run");
    let prefix_s = t0.elapsed().as_secs_f64();
    assert!(!prep.cache.hit(), "first run must be cold");
    let t0 = Instant::now();
    let warm = Plan::full().run(&rt, request("warm")).expect("warm run");
    let warm_s = t0.elapsed().as_secs_f64();
    let warm_use = &warm.cache;

    assert!(warm_use.hit(), "overlapping plan must reuse the cached prefix");
    assert_eq!(warm.sam, cold.sam, "cache reuse must be byte-invisible");
    let stats = cache.stats();
    let speedup = if warm_s > 0.0 { cold_s / warm_s } else { 0.0 };

    print_header(
        "Plan-aware result cache (full plan, import+align prefix cached)",
        &["run", "elapsed", "stages run", "shape"],
    );
    println!("cold\t{cold_s:.3} s\t{}\t{}", Plan::full().stages().len(), Plan::full().describe());
    println!(
        "warm\t{warm_s:.3} s\t{}\t{}",
        Plan::full().stages().len() - warm_use.elided,
        Plan::full().describe_cached(warm_use.elided)
    );
    println!(
        "\nwarm run elides {} stages and is {speedup:.1}x the cold run \
         ({} cache entries, {} ns of recompute saved)",
        warm_use.elided, stats.entries, stats.reuse_saved_ns
    );

    let fields = format!(
        "\"reads\":{reads},\"cold_s\":{cold_s:.6},\"prefix_s\":{prefix_s:.6},\
         \"warm_s\":{warm_s:.6},\"warm_speedup\":{speedup:.3},\
         \"elided_stages\":{},\"hits\":{},\"misses\":{},\"insertions\":{},\
         \"reuse_saved_ns\":{}",
        warm_use.elided, stats.hits, stats.misses, stats.insertions, stats.reuse_saved_ns
    );
    let path =
        write_bench_json("BENCH_cache.json", "cache", &fields).expect("write BENCH_cache.json");
    println!("wrote {}", path.display());
}

/// One synthetic job lifecycle's worth of journal records: what the
/// durable service writes for a FASTQ-input full-plan job.
fn job_lifecycle(id: u64, fastq: &[u8], manifest: &Manifest) -> Vec<JournalRecord> {
    let mut records = vec![
        JournalRecord::Submitted {
            job_id: id,
            name: format!("job-{id}"),
            tenant: if id % 3 == 0 { "batch" } else { "prod" }.to_string(),
            priority: Priority::Normal,
            plan: Plan::full(),
            input: RecordedInput::Fastq(fastq.to_vec()),
            chunk_size: 2_000,
            reference: vec![("chr1".into(), 120_000)],
        },
        JournalRecord::Started { job_id: id },
    ];
    for stage in [Stage::Align, Stage::Sort, Stage::Dupmark] {
        records.push(JournalRecord::StageCompleted {
            job_id: id,
            stage,
            manifest: manifest.clone(),
        });
    }
    records.push(JournalRecord::Finished {
        job_id: id,
        name: format!("job-{id}"),
        tenant: if id % 3 == 0 { "batch" } else { "prod" }.to_string(),
        status: TerminalStatus::Completed,
        error: None,
    });
    records
}

/// Journal throughput under each fsync policy: the price of "every
/// acknowledged transition survives any crash" versus group commit
/// versus OS-paced flushing, over identical record streams.
fn wal_bench() {
    let sc = scale();
    let jobs = ((600.0 * sc) as u64).max(50);
    let fastq = vec![b'A'; 4 * 1024];
    let manifest = Manifest::new("bench");
    let dir = std::env::temp_dir().join(format!("persona-wal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");

    let policies: [(&str, FsyncPolicy); 3] = [
        ("always", FsyncPolicy::Always),
        ("batch16", FsyncPolicy::Batch(16)),
        ("never", FsyncPolicy::Never),
    ];
    print_header(
        "Write-ahead journal (6 records per job lifecycle)",
        &["fsync", "jobs", "records/s", "MB/s", "elapsed"],
    );
    let mut measured: Vec<(&str, f64, u64)> = Vec::new();
    for (name, policy) in policies {
        let path = dir.join(format!("{name}.wal"));
        let _ = std::fs::remove_file(&path);
        let mut journal =
            Journal::open(&path, JournalConfig { fsync: policy, compact_threshold: 0 })
                .expect("open journal");
        let t0 = Instant::now();
        for id in 1..=jobs {
            for record in job_lifecycle(id, &fastq, &manifest) {
                journal.append(&record).expect("append");
            }
        }
        journal.sync().expect("sync");
        let elapsed = t0.elapsed().as_secs_f64();
        let bytes = journal.len();
        drop(journal);
        // The log must replay to exactly what was written.
        let replayed = Journal::read(&path).expect("replay");
        assert_eq!(replayed.records.len() as u64, jobs * 6, "{name}: torn log");
        assert_eq!(replayed.good_len, bytes, "{name}: replay length");
        let records_per_sec = if elapsed > 0.0 { (jobs * 6) as f64 / elapsed } else { 0.0 };
        let mb_per_sec =
            if elapsed > 0.0 { bytes as f64 / elapsed / (1024.0 * 1024.0) } else { 0.0 };
        println!("{name}\t{jobs}\t{records_per_sec:.0}\t{mb_per_sec:.1}\t{elapsed:.3} s");
        measured.push((name, elapsed, bytes));
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let field = |name: &str| {
        let &(_, elapsed, bytes) =
            measured.iter().find(|(n, _, _)| *n == name).expect("policy measured");
        format!("\"{name}_s\":{elapsed:.6},\"{name}_bytes\":{bytes}")
    };
    let batching_speedup = {
        let always = measured[0].1;
        let batch = measured[1].1;
        if batch > 0.0 {
            always / batch
        } else {
            0.0
        }
    };
    let fields = format!(
        "\"jobs\":{jobs},\"records\":{},{},{},{},\
         \"batching_speedup\":{batching_speedup:.3}",
        jobs * 6,
        field("always"),
        field("batch16"),
        field("never"),
    );
    let path = write_bench_json("BENCH_wal.json", "wal", &fields).expect("write BENCH_wal.json");
    println!("\nfsync batching (16) is {batching_speedup:.1}x the per-record fsync throughput");
    println!("wrote {}", path.display());
}

/// Raises the open-file soft limit so thousands of loopback sockets
/// (client + server end in one process) fit under it. Best effort: a
/// refusal leaves the limit alone and the soak fails loudly later.
#[cfg(target_os = "linux")]
fn raise_nofile_limit(min_fds: u64) {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return;
        }
        // Both socket ends plus headroom for stores, logs, and the WAL.
        let want = min_fds.saturating_mul(3).saturating_add(512);
        if lim.cur >= want {
            return;
        }
        lim.cur = want.min(lim.max);
        let _ = setrlimit(RLIMIT_NOFILE, &lim);
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_nofile_limit(_min_fds: u64) {}

/// Reads one numeric field (kB counts and bare counts alike) from
/// `/proc/self/status`, e.g. `VmHWM` (peak RSS) or `Threads`.
fn proc_self_status(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let digits: String = line.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The soak trajectory: N concurrent pipelined v2 connections of mixed
/// submit/status/cancel/attach traffic across two tenants, driven from
/// a bounded worker pool so the client side cannot hide a
/// thread-per-connection server. Proves the event loop holds ≥1024
/// live connections with bounded threads and bounded memory, and that
/// the pipelined v2 path is byte-identical to the v1 blocking client.
fn soak_bench(args: &Args) {
    let n = args.connections;
    raise_nofile_limit(n as u64);
    // A small world: the soak stresses the front end, not the aligner.
    let world = World::build(40_000, 64, 97);
    let fastq_bytes = fastq::to_bytes(&world.reads);
    let (server, addr) = match &args.addr {
        Some(addr) => (None, addr.parse::<SocketAddr>().expect("--addr host:port")),
        None => {
            let server = start_server(&world, 8);
            let addr = server.local_addr();
            (Some(server), addr)
        }
    };
    let submit = |name: String, tenant: &str| WireSubmit {
        name,
        tenant: tenant.to_string(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: SubmitInput::Fastq(fastq_bytes.clone()),
        chunk_size: 2_000,
        reference: world.reference.clone(),
    };

    // Byte identity first: the same spec through the v1 blocking
    // dialect and the v2 pipelined one must produce the same bytes.
    let mut v1 = match WireClient::connect_v1(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("persona-cli: cannot connect v1 to {addr}: {e}");
            std::process::exit(2);
        }
    };
    let job = v1.submit(submit("probe-v1".into(), "prod")).expect("v1 submit");
    let v1_outcome = v1.wait(job).expect("v1 wait");
    assert_eq!(v1_outcome.status, WireJobStatus::Completed, "v1 probe failed");
    let mut v2 = connect_checked(addr);
    let job = v2.submit(submit("probe-v2".into(), "prod")).expect("v2 submit");
    let v2_outcome = v2.wait(job).expect("v2 wait");
    assert_eq!(v2_outcome.status, WireJobStatus::Completed, "v2 probe failed");
    assert_eq!(v1_outcome.sam, v2_outcome.sam, "v1 and v2 clients must see identical bytes");
    drop(v1);
    drop(v2);

    println!("soak: opening {n} concurrent pipelined connections to {addr} ...");
    let t0 = Instant::now();
    let mut clients: Vec<WireClient> = (0..n).map(|_| connect_checked(addr)).collect();
    let open_s = t0.elapsed().as_secs_f64();
    if let Some(server) = &server {
        let connections = server.service().runtime().telemetry().gauge("wire.connections");
        assert!(
            connections.value() >= n as i64,
            "server reports {} live connections, expected at least {n}",
            connections.value()
        );
    }
    let threads_at_peak = proc_self_status("Threads");
    if let Some(threads) = threads_at_peak {
        // The whole process — server loops, executor, service, client
        // workers — must stay orders of magnitude under one thread per
        // connection, or the event loop is a lie.
        assert!(
            (threads as usize) < n.max(256) / 2,
            "{threads} threads for {n} connections is not a bounded worker pool"
        );
    }

    // Mixed pipelined traffic from a bounded worker pool: every
    // connection submits (pipelined), polls status, and then either
    // cancels, attaches to its own job by name, or streams the output.
    let workers = 32.min(n.max(1));
    let per_worker = n.div_ceil(workers);
    let t0 = Instant::now();
    let mut latencies_ns: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .chunks_mut(per_worker)
            .enumerate()
            .map(|(w, chunk)| {
                let submit = &submit;
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(chunk.len() * 3);
                    for (i, client) in chunk.iter_mut().enumerate() {
                        let k = w * per_worker + i;
                        let tenant = if k % 3 == 0 { "batch" } else { "prod" };
                        let name = format!("soak-{k}");
                        let t = Instant::now();
                        let seq = client.submit_pipelined(submit(name.clone(), tenant));
                        let job = client.take_submit(seq.expect("soak submit")).expect("accepted");
                        lat.push(t.elapsed().as_nanos() as u64);
                        let t = Instant::now();
                        client.status(job).expect("soak status");
                        lat.push(t.elapsed().as_nanos() as u64);
                        match k % 5 {
                            // A cancel may race completion; both fine.
                            0 => {
                                let t = Instant::now();
                                client.cancel(job).expect("soak cancel");
                                lat.push(t.elapsed().as_nanos() as u64);
                            }
                            1 => {
                                let t = Instant::now();
                                let (attached, _) = client.attach(&name).expect("soak attach");
                                lat.push(t.elapsed().as_nanos() as u64);
                                assert_eq!(attached, job, "attach resolved the wrong job");
                            }
                            _ => {
                                let t = Instant::now();
                                let outcome = client.wait(job).expect("soak wait");
                                lat.push(t.elapsed().as_nanos() as u64);
                                assert_eq!(
                                    outcome.status,
                                    WireJobStatus::Completed,
                                    "soak job {job}: {:?}",
                                    outcome.error
                                );
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("soak worker")).collect()
    });
    let soak_s = t0.elapsed().as_secs_f64();
    let ops = latencies_ns.len();
    latencies_ns.sort_unstable();
    let pct = |p: f64| latencies_ns[((ops - 1) as f64 * p) as usize] as f64 / 1_000.0;
    let (p50_us, p95_us, p99_us) = (pct(0.50), pct(0.95), pct(0.99));
    let ops_per_sec = if soak_s > 0.0 { ops as f64 / soak_s } else { 0.0 };

    // Peak RSS and stall counters once the traffic has drained.
    let peak_rss_kb = proc_self_status("VmHWM");
    let threads = proc_self_status("Threads");
    let (stalls, pending_writes) = match &server {
        Some(server) => {
            let telemetry = server.service().runtime().telemetry().clone();
            let pending = telemetry.gauge("wire.pending_writes");
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while pending.value() != 0 && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            (telemetry.counter("wire.backpressure_stalls").value(), pending.value())
        }
        None => (0, 0),
    };
    drop(clients);

    print_header(
        "Wire soak (event-driven front end, pipelined v2 connections)",
        &["connections", "workers", "ops", "p50", "p95", "p99"],
    );
    println!("{n}\t{workers}\t{ops}\t{p50_us:.0} µs\t{p95_us:.0} µs\t{p99_us:.0} µs");
    println!(
        "\nopened in {open_s:.2} s | {ops_per_sec:.0} ops/s over {soak_s:.2} s | \
         {} backpressure stalls | pending writes at drain: {pending_writes}",
        stalls
    );
    if let (Some(kb), Some(t)) = (peak_rss_kb, threads) {
        println!("peak RSS (VmHWM): {:.1} MiB | process threads: {t}", kb as f64 / 1024.0);
    }

    let fields = format!(
        "\"mode\":\"soak\",\"connections\":{n},\"workers\":{workers},\"ops\":{ops},\
         \"open_s\":{open_s:.6},\"soak_s\":{soak_s:.6},\"ops_per_sec\":{ops_per_sec:.1},\
         \"p50_us\":{p50_us:.1},\"p95_us\":{p95_us:.1},\"p99_us\":{p99_us:.1},\
         \"backpressure_stalls\":{stalls},\"pending_writes_after\":{pending_writes},\
         \"peak_rss_kb\":{},\"threads\":{},\"v1_v2_byte_identical\":true",
        peak_rss_kb.map_or("null".into(), |v| v.to_string()),
        threads.map_or("null".into(), |v| v.to_string()),
    );
    let path = write_bench_json("BENCH_wire.json", "wire", &fields).expect("write BENCH_wire.json");
    println!("wrote {}", path.display());
}

/// Builds the service + wire server pair over a fresh runtime.
fn start_server(world: &World, max_jobs: usize) -> WireServer {
    let rt = PersonaRuntime::new(mem_store(), PersonaConfig::default()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: max_jobs, ..ServiceConfig::default() },
    );
    service.set_tenant(
        "prod",
        TenantConfig { weight: 2, max_in_flight: 3, ..TenantConfig::default() },
    );
    service.set_tenant(
        "batch",
        TenantConfig { weight: 1, max_in_flight: 3, ..TenantConfig::default() },
    );
    WireServer::bind(
        "127.0.0.1:0",
        service,
        WireServerConfig { aligner: Some(world.snap_aligner()) },
    )
    .expect("bind loopback wire server")
}

/// Lands an aligned dataset for dataset-input plans (not timed).
fn landed_dataset(rt: &Arc<PersonaRuntime>, world: &World, fastq_bytes: &[u8]) -> Manifest {
    Plan::import_align()
        .run(
            rt,
            PlanRequest {
                name: "landed".into(),
                source: PlanSource::fastq_bytes(fastq_bytes.to_vec()),
                chunk_size: 2_000,
                aligner: Some(world.snap_aligner()),
                reference: world.reference.clone(),
            },
        )
        .expect("prepare aligned dataset")
        .manifest
        .expect("import-align lands a dataset")
}

fn main() {
    let args = parse_args();
    if let Some(introspect) = &args.introspect {
        let addr = args.addr.as_deref().unwrap_or_else(|| {
            eprintln!("persona-cli: stats/trace need --addr ADDR (a running server)");
            std::process::exit(2);
        });
        match introspect {
            Introspect::Stats { watch } => stats_command(addr, *watch),
            Introspect::Trace { job_id } => trace_command(addr, *job_id),
            Introspect::Cache => cache_command(addr),
        }
        return;
    }
    if args.wal_bench {
        wal_bench();
        return;
    }
    if args.cache_bench {
        cache_bench();
        return;
    }
    if args.soak {
        soak_bench(&args);
        return;
    }
    let sc = scale();
    let plan = Plan::preset(&args.plan_name).unwrap_or_else(|| {
        panic!("unknown plan `{}` (one of {})", args.plan_name, PRESET_NAMES.join(", "))
    });
    let reads_per_job = ((4_000.0 * sc) as usize).max(200);
    let world = World::build((120_000.0 * sc as f64).max(40_000.0) as usize, reads_per_job, 53);
    let fastq_bytes = fastq::to_bytes(&world.reads);

    if let Some(addr) = args.serve {
        let rt = PersonaRuntime::new(mem_store(), PersonaConfig::default()).unwrap();
        let service = PersonaService::new(
            rt,
            ServiceConfig { cache_capacity: args.cache_capacity, ..ServiceConfig::default() },
        );
        if args.cache_capacity > 0 {
            println!("result cache enabled: {} entries", args.cache_capacity);
        }
        let server = WireServer::bind(
            addr.as_str(),
            service,
            WireServerConfig { aligner: Some(world.snap_aligner()) },
        )
        .expect("bind requested address");
        println!("persona wire server listening on {}", server.local_addr());
        println!("aligner genome: {} bases synthetic; Ctrl-C to stop", world.genome.total_len());
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    let total_jobs = args.clients * args.jobs_per_client;
    println!(
        "workload: {} clients × {} jobs × {reads_per_job} reads | plan: {}",
        args.clients,
        args.jobs_per_client,
        plan.describe()
    );

    // In-process baseline: the same job mix submitted directly to a
    // PersonaService (no wire). The aligner is built once and shared,
    // exactly like the wire server's configured aligner, so the
    // comparison isolates the wire itself. Skipped when targeting a
    // remote server.
    let in_process_s = if args.addr.is_none() {
        let rt = PersonaRuntime::new(mem_store(), PersonaConfig::default()).unwrap();
        let service = PersonaService::new(
            rt.clone(),
            ServiceConfig { max_concurrent_jobs: 4, ..ServiceConfig::default() },
        );
        service.set_tenant(
            "prod",
            TenantConfig { weight: 2, max_in_flight: 3, ..TenantConfig::default() },
        );
        service.set_tenant(
            "batch",
            TenantConfig { weight: 1, max_in_flight: 3, ..TenantConfig::default() },
        );
        let aligner = world.snap_aligner();
        let aligned =
            (plan.input() != DataState::Fastq).then(|| landed_dataset(&rt, &world, &fastq_bytes));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..total_jobs)
            .map(|k| {
                service
                    .submit(JobSpec {
                        name: format!("inproc-{k}"),
                        tenant: if k % 3 == 0 { "batch" } else { "prod" }.to_string(),
                        priority: Priority::Normal,
                        plan: plan.clone(),
                        input: match &aligned {
                            Some(m) => JobInput::Dataset(m.clone()),
                            None => JobInput::Fastq(fastq_bytes.clone()),
                        },
                        chunk_size: 2_000,
                        aligner: plan.contains(Stage::Align).then(|| aligner.clone()),
                        reference: world.reference.clone(),
                    })
                    .expect("in-process submit")
            })
            .collect();
        for h in &handles {
            assert!(h.wait().output().is_some(), "in-process job {} failed", h.name());
        }
        Some(t0.elapsed().as_secs_f64())
    } else {
        None
    };

    // Wire path: the same mix through N concurrent TCP clients.
    let (server, addr) = match &args.addr {
        Some(addr) => (None, addr.parse::<SocketAddr>().expect("--addr host:port")),
        None => {
            let server = start_server(&world, 4);
            let addr = server.local_addr();
            (Some(server), addr)
        }
    };
    // A dataset-input plan needs the dataset landed on the *server's*
    // store; do it over the wire with an untimed import-align job.
    let server_dataset = (plan.input() != DataState::Fastq).then(|| {
        let mut client = connect_checked(addr);
        let job = client
            .submit(WireSubmit {
                name: "landed".into(),
                tenant: "prod".into(),
                priority: Priority::Normal,
                plan: Plan::import_align(),
                input: SubmitInput::Fastq(fastq_bytes.clone()),
                chunk_size: 2_000,
                reference: world.reference.clone(),
            })
            .expect("prep submit");
        let outcome = client.wait(job).expect("prep wait");
        assert_eq!(outcome.status, WireJobStatus::Completed, "prep job failed");
        outcome.manifest.expect("import-align lands a dataset")
    });

    let t0 = Instant::now();
    let per_client_reads: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let plan = plan.clone();
                let fastq_bytes = &fastq_bytes;
                let world = &world;
                let server_dataset = &server_dataset;
                let jobs = args.jobs_per_client;
                s.spawn(move || {
                    let mut client = connect_checked(addr);
                    let mut reads = 0u64;
                    // Submit the client's whole batch first, then wait:
                    // submissions race across clients and the service's
                    // fair-share admission does the interleaving.
                    let ids: Vec<u64> = (0..jobs)
                        .map(|j| {
                            client
                                .submit(WireSubmit {
                                    name: format!("wire-{c}-{j}"),
                                    tenant: if c % 3 == 0 { "batch" } else { "prod" }.to_string(),
                                    priority: Priority::Normal,
                                    plan: plan.clone(),
                                    input: match server_dataset {
                                        Some(m) => SubmitInput::Dataset(m.clone()),
                                        None => SubmitInput::Fastq(fastq_bytes.clone()),
                                    },
                                    chunk_size: 2_000,
                                    reference: world.reference.clone(),
                                })
                                .expect("wire submit")
                        })
                        .collect();
                    for id in ids {
                        let outcome = client.wait(id).expect("wire wait");
                        assert_eq!(
                            outcome.status,
                            WireJobStatus::Completed,
                            "wire job {id}: {:?}",
                            outcome.error
                        );
                        assert_eq!(outcome.reads, reads_per_job as u64, "wire job {id}");
                        reads += outcome.reads;
                    }
                    reads
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wire_s = t0.elapsed().as_secs_f64();
    let total_reads: u64 = per_client_reads.iter().sum();
    assert_eq!(total_reads, (total_jobs * reads_per_job) as u64);

    // Tenant accounting over the wire.
    let mut client = connect_checked(addr);
    let report = client.report().expect("report");
    print_header(
        "Wire front end (loopback TCP, fair-share service)",
        &["tenant", "jobs", "reads", "reads/s"],
    );
    for t in &report.tenants {
        println!("{}\t{}\t{}\t{:.0}", t.tenant, t.completed, t.reads, t.reads_per_sec);
    }
    drop(client);
    drop(server);

    let reads_per_sec = if wire_s > 0.0 { total_reads as f64 / wire_s } else { 0.0 };
    match in_process_s {
        Some(base_s) => {
            let overhead = if base_s > 0.0 { wire_s / base_s - 1.0 } else { 0.0 };
            println!(
                "\nin-process: {base_s:.2} s | over the wire: {wire_s:.2} s \
                 ({:+.1}% wire overhead) | {reads_per_sec:.0} reads/s aggregate",
                overhead * 100.0
            );
            write_wire_json(&args, reads_per_job, total_reads, wire_s, Some(base_s));
        }
        None => {
            println!("\nover the wire: {wire_s:.2} s | {reads_per_sec:.0} reads/s aggregate");
            write_wire_json(&args, reads_per_job, total_reads, wire_s, None);
        }
    }
}

/// The machine-readable trajectory point CI uploads.
fn write_wire_json(
    args: &Args,
    reads_per_job: usize,
    total_reads: u64,
    wire_s: f64,
    in_process_s: Option<f64>,
) {
    let reads_per_sec = if wire_s > 0.0 { total_reads as f64 / wire_s } else { 0.0 };
    let (base, overhead) = match in_process_s {
        Some(base_s) => (
            format!("{base_s:.6}"),
            format!("{:.6}", if base_s > 0.0 { wire_s / base_s - 1.0 } else { 0.0 }),
        ),
        None => ("null".to_string(), "null".to_string()),
    };
    let fields = format!(
        "\"plan\":\"{}\",\"clients\":{},\"jobs_per_client\":{},\
         \"reads_per_job\":{reads_per_job},\"total_reads\":{total_reads},\
         \"wire_s\":{wire_s:.6},\"in_process_s\":{base},\"wire_overhead\":{overhead},\
         \"reads_per_sec\":{reads_per_sec:.1}",
        args.plan_name, args.clients, args.jobs_per_client
    );
    let path = write_bench_json("BENCH_wire.json", "wire", &fields).expect("write BENCH_wire.json");
    println!("wrote {}", path.display());
}
