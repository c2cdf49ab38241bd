//! `persona-cli` — the wire-protocol client: host a `WireServer` over
//! a synthetic world, drive jobs at one over TCP, and read its live
//! introspection surface.
//!
//! Modes:
//!   `--serve ADDR [--cache N]`  host a wire server over a synthetic
//!                   world (for driving from another process/machine);
//!                   `--cache N` enables the result cache with N entries
//!   `--addr ADDR [--plan P] [--clients N] [--jobs-per-client M]`
//!                   drive N concurrent clients × M jobs of plan P
//!                   (one of the presets, default `full`) across two
//!                   tenants against a running server, check every job
//!                   completed with the expected read count, and print
//!                   the server's tenant report
//!   `soak [--connections N] [--addr ADDR]`
//!                   drive N (default 1024) concurrent *pipelined*
//!                   connections of mixed submit/status/cancel/attach
//!                   traffic across two tenants from a bounded worker
//!                   pool, against `--addr` or a loopback server of its
//!                   own; checks the thread count stays bounded and
//!                   prints p50/p95/p99 op latency plus peak-RSS and
//!                   thread-count proxies from `/proc/self/status`
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
//!
//! A malformed command line prints the usage to stderr and exits 2.
//! Knobs: `PERSONA_BENCH_SCALE` (dataset size).
//! Performance is measured by the regression benchmark under `bench/`.

use std::net::SocketAddr;
use std::time::Instant;

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PRESET_NAMES};
use persona::runtime::PersonaRuntime;
use persona::wire::{SubmitInput, WireClient, WireJobStatus, WireSubmit};
use persona_bench::{mem_store, print_header, scale, World};
use persona_dataflow::Priority;
use persona_formats::fastq;
use persona_server::{PersonaService, ServiceConfig, TenantConfig, WireServer, WireServerConfig};

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
    plan: Plan,
    clients: usize,
    jobs_per_client: usize,
    serve: Option<String>,
    addr: Option<String>,
    cache_capacity: usize,
    soak: bool,
    connections: usize,
    introspect: Option<Introspect>,
}

/// Prints `problem` and the usage line to stderr and exits with status
/// 2, the same status an unreachable server gets.
fn usage_error(problem: &str) -> ! {
    eprintln!("persona-cli: {problem}");
    eprintln!(
        "usage: persona-cli --serve ADDR [--cache N] \
         | --addr ADDR [--plan <{}>] [--clients N] [--jobs-per-client M] \
         | soak [--connections N] [--addr ADDR] \
         | stats [--watch] --addr ADDR | trace JOB_ID --addr ADDR | cache --addr ADDR",
        PRESET_NAMES.join("|")
    );
    std::process::exit(2);
}

/// The value after option `what`, or the usage.
fn value(args: &mut impl Iterator<Item = String>, what: &str) -> String {
    args.next().unwrap_or_else(|| usage_error(&format!("`{what}` needs a value")))
}

/// The numeric value after option `what`, or the usage.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
    let text = value(args, what);
    text.parse().unwrap_or_else(|_| usage_error(&format!("`{what}` needs a number, got `{text}`")))
}

fn parse_args() -> Args {
    let mut parsed = Args {
        plan: Plan::full(),
        clients: 4,
        jobs_per_client: 2,
        serve: None,
        addr: None,
        cache_capacity: 0,
        soak: false,
        connections: 1024,
        introspect: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "stats" => parsed.introspect = Some(Introspect::Stats { watch: false }),
            "trace" => {
                parsed.introspect = Some(Introspect::Trace { job_id: number(args, "trace") })
            }
            "--watch" => match &mut parsed.introspect {
                Some(Introspect::Stats { watch }) => *watch = true,
                _ => usage_error("`--watch` only applies to the `stats` subcommand"),
            },
            "--plan" => {
                let name = value(args, "--plan");
                parsed.plan = Plan::preset(&name)
                    .unwrap_or_else(|| usage_error(&format!("unknown plan `{name}`")));
            }
            "--clients" => parsed.clients = number(args, "--clients"),
            "--jobs-per-client" => parsed.jobs_per_client = number(args, "--jobs-per-client"),
            "--serve" => parsed.serve = Some(value(args, "--serve")),
            "--addr" => parsed.addr = Some(value(args, "--addr")),
            "cache" => parsed.introspect = Some(Introspect::Cache),
            "--cache" => parsed.cache_capacity = number(args, "--cache"),
            "soak" => parsed.soak = true,
            "--connections" => parsed.connections = number(args, "--connections"),
            other => usage_error(&format!("unknown argument `{other}`")),
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
    // SAFETY: `getrlimit` / `setrlimit` are the libc calls of the same
    // name, and `Rlimit` matches `struct rlimit` on Linux (two `rlim_t`
    // = `u64` fields, `repr(C)`). Each call gets a pointer to a live,
    // initialized local that outlives it; `getrlimit` writes only
    // through it and `setrlimit` only reads it.
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

/// The soak: N concurrent pipelined connections of mixed
/// submit/status/cancel/attach traffic across two tenants, driven from
/// a bounded worker pool so the client side cannot hide a
/// thread-per-connection server. Proves the event loop holds ≥1024
/// live connections with bounded threads and bounded memory.
fn soak(args: &Args) {
    let n = args.connections;
    raise_nofile_limit(n as u64);
    // A small world: the soak stresses the front end, not the aligner.
    let world = World::build(40_000, 64, 97);
    let fastq_bytes = fastq::to_bytes(&world.reads);
    let (server, addr) = match &args.addr {
        Some(addr) => (None, socket_addr(addr)),
        None => {
            let server = start_server(&world);
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
}

/// Parses `--addr`'s `host:port`, or exits with the usage.
fn socket_addr(addr: &str) -> SocketAddr {
    addr.parse().unwrap_or_else(|_| usage_error(&format!("`--addr` needs host:port, got `{addr}`")))
}

/// Builds the soak's service + loopback wire server pair over a fresh
/// runtime.
fn start_server(world: &World) -> WireServer {
    let rt = PersonaRuntime::new(mem_store(), PersonaConfig::default()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 8, ..ServiceConfig::default() },
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

/// The synthetic world `--serve` aligns against and `--addr` submits
/// reads from, sized by `PERSONA_BENCH_SCALE`.
fn job_world() -> World {
    let sc = scale();
    let reads_per_job = ((4_000.0 * sc) as usize).max(200);
    World::build((120_000.0 * sc).max(40_000.0) as usize, reads_per_job, 53)
}

/// `persona-cli --serve ADDR [--cache N]`: hosts a wire server over a
/// synthetic world until killed.
fn serve(addr: &str, world: &World, cache_capacity: usize) -> ! {
    let rt = PersonaRuntime::new(mem_store(), PersonaConfig::default()).unwrap();
    let service =
        PersonaService::new(rt, ServiceConfig { cache_capacity, ..ServiceConfig::default() });
    if cache_capacity > 0 {
        println!("result cache enabled: {cache_capacity} entries");
    }
    let config = WireServerConfig { aligner: Some(world.snap_aligner()) };
    let server = WireServer::bind(addr, service, config).unwrap_or_else(|e| {
        eprintln!("persona-cli: cannot serve on {addr}: {e}");
        std::process::exit(2);
    });
    println!("persona wire server listening on {}", server.local_addr());
    println!("aligner genome: {} bases synthetic; Ctrl-C to stop", world.genome.total_len());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `persona-cli --addr ADDR [--plan P] [--clients N] [--jobs-per-client
/// M]`: N concurrent clients each submit M jobs of plan P, then wait on
/// them; every job must complete with the world's read count.
fn drive(addr: SocketAddr, args: &Args, world: &World, fastq_bytes: &[u8]) {
    let plan = &args.plan;
    let reads_per_job = world.reads.len() as u64;
    println!(
        "workload: {} clients × {} jobs × {reads_per_job} reads | plan: {}",
        args.clients,
        args.jobs_per_client,
        plan.describe()
    );
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
                input: SubmitInput::Fastq(fastq_bytes.to_vec()),
                chunk_size: 2_000,
                reference: world.reference.clone(),
            })
            .expect("prep submit");
        let outcome = client.wait(job).expect("prep wait");
        assert_eq!(outcome.status, WireJobStatus::Completed, "prep job failed");
        outcome.manifest.expect("import-align lands a dataset")
    });

    let t0 = Instant::now();
    let total_reads: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let server_dataset = &server_dataset;
                s.spawn(move || {
                    let mut client = connect_checked(addr);
                    // Submit the client's whole batch first, then wait:
                    // submissions race across clients and the service's
                    // fair-share admission does the interleaving.
                    let ids: Vec<u64> = (0..args.jobs_per_client)
                        .map(|j| {
                            client
                                .submit(WireSubmit {
                                    name: format!("wire-{c}-{j}"),
                                    tenant: if c % 3 == 0 { "batch" } else { "prod" }.to_string(),
                                    priority: Priority::Normal,
                                    plan: plan.clone(),
                                    input: match server_dataset {
                                        Some(m) => SubmitInput::Dataset(m.clone()),
                                        None => SubmitInput::Fastq(fastq_bytes.to_vec()),
                                    },
                                    chunk_size: 2_000,
                                    reference: world.reference.clone(),
                                })
                                .expect("wire submit")
                        })
                        .collect();
                    let mut reads = 0;
                    for id in ids {
                        let outcome = client.wait(id).expect("wire wait");
                        assert_eq!(
                            outcome.status,
                            WireJobStatus::Completed,
                            "wire job {id}: {:?}",
                            outcome.error
                        );
                        assert_eq!(outcome.reads, reads_per_job, "wire job {id}");
                        reads += outcome.reads;
                    }
                    reads
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    });
    let wire_s = t0.elapsed().as_secs_f64();
    assert_eq!(total_reads, (args.clients * args.jobs_per_client) as u64 * reads_per_job);

    // Tenant accounting over the wire.
    let report = connect_checked(addr).report().expect("report");
    print_header("Wire front end (fair-share service)", &["tenant", "jobs", "reads", "reads/s"]);
    for t in &report.tenants {
        println!("{}\t{}\t{}\t{:.0}", t.tenant, t.completed, t.reads, t.reads_per_sec);
    }
    let reads_per_sec = if wire_s > 0.0 { total_reads as f64 / wire_s } else { 0.0 };
    println!("\nover the wire: {wire_s:.2} s | {reads_per_sec:.0} reads/s aggregate");
}

fn main() {
    let args = parse_args();
    if let Some(introspect) = &args.introspect {
        let addr = args.addr.as_deref().unwrap_or_else(|| {
            usage_error("stats, trace and cache need --addr ADDR (a running server)")
        });
        match introspect {
            Introspect::Stats { watch } => stats_command(addr, *watch),
            Introspect::Trace { job_id } => trace_command(addr, *job_id),
            Introspect::Cache => cache_command(addr),
        }
        return;
    }
    if args.soak {
        soak(&args);
        return;
    }
    match (&args.serve, &args.addr) {
        (Some(addr), _) => serve(addr, &job_world(), args.cache_capacity),
        (None, Some(addr)) => {
            let world = job_world();
            drive(socket_addr(addr), &args, &world, &fastq::to_bytes(&world.reads))
        }
        (None, None) => usage_error("nothing to do: give --serve, --addr, soak or a subcommand"),
    }
}
