//! The wire protocol end to end over loopback TCP: jobs submitted by
//! `WireClient` must be byte-identical to the same specs through the
//! in-process `PersonaService`, disconnects must cancel a client's
//! unfinished jobs, and malformed traffic must get *typed* error
//! replies — never a silently dropped connection.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, Stage};
use persona::runtime::PersonaRuntime;
use persona::wire::{
    write_frame, ErrorCode, Message, SubmitInput, WireClient, WireJobStatus, WireSubmit,
    PROTOCOL_VERSION,
};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_align::Aligner;
use persona_dataflow::Priority;
use persona_formats::fastq;
use persona_integration_tests::common::{wait_for, Fixture, Gate, GateAligner, SlowAligner};
use persona_server::service::JOB_RETAIN;
use persona_server::{
    JobInput, JobSpec, PersonaService, ServiceConfig, WireServer, WireServerConfig,
};

use persona::wire::RawFrame;

fn serve(aligner: Arc<dyn Aligner>, max_jobs: usize) -> WireServer {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: max_jobs, ..ServiceConfig::default() },
    );
    WireServer::bind("127.0.0.1:0", service, WireServerConfig { aligner: Some(aligner) })
        .expect("bind loopback wire server")
}

fn wire_submit(fx: &Fixture, name: &str, tenant: &str, plan: Plan) -> WireSubmit {
    WireSubmit {
        name: name.to_string(),
        tenant: tenant.to_string(),
        priority: Priority::Normal,
        plan,
        input: SubmitInput::Fastq(fastq::to_bytes(&fx.reads)),
        chunk_size: 100,
        reference: fx.reference.clone(),
    }
}

/// The in-process reference: the same spec through `PersonaService`.
fn in_process_sam(fx: &Fixture, name: &str) -> Vec<u8> {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(rt, ServiceConfig::default());
    let handle = service
        .submit(JobSpec {
            name: name.to_string(),
            tenant: "ref".to_string(),
            priority: Priority::Normal,
            plan: Plan::full(),
            input: JobInput::Fastq(fastq::to_bytes(&fx.reads)),
            chunk_size: 100,
            aligner: Some(fx.aligner.clone()),
            reference: fx.reference.clone(),
        })
        .unwrap();
    let outcome = handle.wait();
    outcome.output().expect("reference job completes").sam.clone()
}

/// The acceptance-criteria test: concurrent wire clients across two
/// tenants produce output byte-identical to the in-process service.
#[test]
fn concurrent_wire_clients_match_in_process_service() {
    let fx_a = Fixture::new(8001, 400);
    let fx_b = Fixture::new(8002, 300);
    let ref_a = in_process_sam(&fx_a, "ref-a");
    let ref_b = in_process_sam(&fx_b, "ref-b");

    // A server's aligner is a server-side resource, and each fixture
    // has its own genome — so one server per fixture, two concurrent
    // tenants on each.
    let server_a = serve(fx_a.aligner.clone(), 4);
    let server_b = serve(fx_b.aligner.clone(), 4);
    let addr_a = server_a.local_addr();
    let addr_b = server_b.local_addr();

    let jobs: Vec<(&Fixture, std::net::SocketAddr, &str, &str, &Vec<u8>)> = vec![
        (&fx_a, addr_a, "lab-a", "wire-a1", &ref_a),
        (&fx_a, addr_a, "lab-b", "wire-a2", &ref_a),
        (&fx_b, addr_b, "lab-a", "wire-b1", &ref_b),
        (&fx_b, addr_b, "lab-b", "wire-b2", &ref_b),
    ];
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(fx, addr, tenant, name, want)| {
                s.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    let job = client
                        .submit(wire_submit(fx, name, tenant, Plan::full()))
                        .expect("submit over tcp");
                    let outcome = client.wait(job).expect("wait over tcp");
                    assert_eq!(outcome.status, WireJobStatus::Completed, "{name}");
                    assert_eq!(
                        outcome.sam, **want,
                        "{name} ({tenant}): SAM over TCP differs from in-process service"
                    );
                    assert_eq!(outcome.reads, fx.reads.len() as u64, "{name}");
                    assert_eq!(
                        outcome.stages.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>(),
                        vec!["import", "align", "sort", "dupmark", "export-sam"],
                        "{name}: full plan reports all five stages over the wire"
                    );
                    assert!(outcome.manifest.is_some(), "{name}: final dataset manifest travels");
                    assert!(
                        outcome.events.last() == Some(&WireJobStatus::Completed),
                        "{name}: events end terminal ({:?})",
                        outcome.events
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("wire client thread");
        }
    });

    // Both tenants show up in the wire report with their finished jobs.
    let mut client = WireClient::connect(addr_a).unwrap();
    let report = client.report().unwrap();
    for tenant in ["lab-a", "lab-b"] {
        let t = report.tenants.iter().find(|t| t.tenant == tenant).expect(tenant);
        assert_eq!(t.completed, 1, "{tenant}");
        assert!(t.reads_per_sec > 0.0, "{tenant}");
    }
}

/// A partial plan over the wire: import-only needs no aligner, returns
/// a manifest and no output streams.
#[test]
fn partial_plan_over_the_wire_lands_a_dataset() {
    let fx = Fixture::new(8003, 200);
    let server = serve(fx.aligner.clone(), 2);
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let job = client.submit(wire_submit(&fx, "ingest", "lab", Plan::import_only())).unwrap();
    let outcome = client.wait(job).unwrap();
    assert_eq!(outcome.status, WireJobStatus::Completed);
    assert!(outcome.sam.is_empty() && outcome.bam.is_empty());
    let manifest = outcome.manifest.expect("import lands a dataset");
    assert_eq!(manifest.total_records, 200);
    assert_eq!(outcome.stages.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>(), vec!["import"]);
}

/// A job name or dataset input that would name a store object outside
/// the store's root gets an `invalid-request` reply at submit, and the
/// connection stays usable.
#[test]
fn object_names_outside_the_store_are_refused_at_submit() {
    let fx = Fixture::new(8010, 60);
    let server = serve(fx.aligner.clone(), 2);
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let job = client.submit(wire_submit(&fx, "ingest", "lab", Plan::import_only())).unwrap();
    let landed = client.wait(job).unwrap().manifest.expect("import lands a dataset");
    let refused = |client: &mut WireClient, submit: WireSubmit| match client.submit(submit) {
        Err(persona::wire::WireClientError::Remote { code, .. }) => {
            code == ErrorCode::InvalidRequest
        }
        other => panic!("expected invalid-request, got {other:?}"),
    };
    for name in ["../escape", "/abs/x", "a/b", ".put-1-2-x"] {
        assert!(refused(&mut client, wire_submit(&fx, name, "lab", Plan::import_only())), "{name}");
    }
    let align = Plan::builder(DataState::EncodedAgd).then(Stage::Align).build().unwrap();
    for path in ["/some/dir/x", "../x"] {
        let mut manifest = landed.clone();
        manifest.records[0].path = path.to_string();
        let mut submit = wire_submit(&fx, "realign", "lab", align.clone());
        submit.input = SubmitInput::Dataset(manifest);
        assert!(refused(&mut client, submit), "{path}");
    }
    let job = client.submit(wire_submit(&fx, "after", "lab", Plan::import_only())).unwrap();
    assert_eq!(client.wait(job).unwrap().status, WireJobStatus::Completed);
}

/// Dropping the connection cancels the client's unfinished jobs.
#[test]
fn disconnect_cancels_the_clients_running_job() {
    let fx = Fixture::new(8004, 2_000);
    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let server = serve(gated, 1);

    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let job = client.submit(wire_submit(&fx, "victim", "lab", Plan::full())).unwrap();
    wait_for(|| client.status(job).unwrap() == WireJobStatus::Running, "job to dispatch");

    // The job is dispatched and blocked at the gate. Drop the client
    // and wait for the server to reap the connection — the same step
    // that issues cancel-on-disconnect — *before* letting alignment
    // proceed. The job resolving `Cancelled` then proves the
    // disconnect cut it short: its remaining batches never ran.
    drop(client);
    let connections = server.service().runtime().telemetry().gauge("wire.connections");
    wait_for(|| connections.value() == 0, "server to reap the dropped connection");
    gate.open();
    wait_for(
        || server.service().report().tenant("lab").map(|t| t.cancelled) == Some(1),
        "disconnect to cancel the job",
    );
}

/// Cancellation over the wire: another connection cancels a running
/// job (job ids are server-global), and the waiter sees `cancelled`.
#[test]
fn wire_cancel_stops_a_running_job() {
    let fx = Fixture::new(8005, 2_000);
    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let server = serve(gated, 1);
    let addr = server.local_addr();

    let mut submitter = WireClient::connect(addr).unwrap();
    let job = submitter.submit(wire_submit(&fx, "victim", "lab", Plan::full())).unwrap();
    wait_for(|| submitter.status(job).unwrap() == WireJobStatus::Running, "job to dispatch");

    // Cancel lands while alignment is still blocked at the gate, so
    // the `Cancelled` outcome after the gate opens proves the cancel
    // (not job completion) resolved the wait — clock-free.
    let mut canceller = WireClient::connect(addr).unwrap();
    canceller.cancel(job).expect("cancel over a second connection");
    gate.open();
    let outcome = submitter.wait(job).expect("wait resolves after cancel");
    assert_eq!(outcome.status, WireJobStatus::Cancelled);
}

/// Malformed traffic gets typed error replies. Garbage *JSON* in an
/// intact frame keeps the connection alive; broken *framing* gets a
/// `bad-frame` reply and a close.
#[test]
fn garbage_frames_get_typed_errors_not_dropped_connections() {
    let fx = Fixture::new(8006, 50);
    let server = serve(fx.aligner.clone(), 1);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Handshake by hand.
    write_frame(&mut stream, &Message::Hello { version: PROTOCOL_VERSION }, &[]).unwrap();
    let (hello, _) = persona::wire::read_message(&mut reader).unwrap().unwrap();
    assert_eq!(hello, Message::ServerHello { version: PROTOCOL_VERSION });

    // 1. An intact frame whose header is not JSON: typed error, the
    //    connection survives.
    let garbage = b"this is not json at all";
    let mut raw = Vec::new();
    raw.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
    raw.extend_from_slice(&0u32.to_be_bytes());
    raw.extend_from_slice(garbage);
    use std::io::Write as _;
    stream.write_all(&raw).unwrap();
    match persona::wire::read_message(&mut reader).unwrap().unwrap() {
        (Message::Error { code, .. }, _) => assert_eq!(code, ErrorCode::BadMessage),
        other => panic!("expected typed error, got {other:?}"),
    }

    // 2. The connection still serves requests: an unknown job id gets
    //    its own typed error.
    write_frame(&mut stream, &Message::Status { seq: 5, job_id: 999 }, &[]).unwrap();
    match persona::wire::read_message(&mut reader).unwrap().unwrap() {
        (Message::Error { seq, code, .. }, _) => {
            assert_eq!(code, ErrorCode::UnknownJob);
            assert_eq!(seq, 5, "errors echo the offending request's seq");
        }
        other => panic!("expected unknown-job error, got {other:?}"),
    }

    // 3. Valid JSON that is no known message: typed error, still alive.
    let bogus = br#"{"type":"frobnicate","seq":6}"#;
    let mut raw = Vec::new();
    raw.extend_from_slice(&(bogus.len() as u32).to_be_bytes());
    raw.extend_from_slice(&0u32.to_be_bytes());
    raw.extend_from_slice(bogus);
    stream.write_all(&raw).unwrap();
    match persona::wire::read_message(&mut reader).unwrap().unwrap() {
        (Message::Error { seq, code, .. }, _) => {
            assert_eq!(code, ErrorCode::BadMessage);
            assert_eq!(seq, 6);
        }
        other => panic!("expected bad-message error, got {other:?}"),
    }

    // 4. A frame whose declared header length is absurd: `bad-frame`
    //    reply, then the server closes (alignment is lost).
    let mut raw = Vec::new();
    raw.extend_from_slice(&u32::MAX.to_be_bytes());
    raw.extend_from_slice(&0u32.to_be_bytes());
    stream.write_all(&raw).unwrap();
    match persona::wire::read_message(&mut reader).unwrap().unwrap() {
        (Message::Error { code, .. }, _) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected bad-frame error, got {other:?}"),
    }
    assert!(
        persona::wire::read_message(&mut reader).unwrap().is_none(),
        "server must close after a framing violation"
    );
}

/// An invalid plan inside a well-formed submit is rejected with the
/// `invalid-plan` code — the re-validating builder runs on the wire
/// path.
#[test]
fn invalid_plan_over_the_wire_gets_a_typed_rejection() {
    let fx = Fixture::new(8007, 50);
    let server = serve(fx.aligner.clone(), 1);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_frame(&mut stream, &Message::Hello { version: PROTOCOL_VERSION }, &[]).unwrap();
    let _ = persona::wire::read_message(&mut reader).unwrap().unwrap();

    use std::io::Write as _;
    for (bad_plan, why) in [
        (r#"{"input":"fastq","stages":["align"]}"#, "missing producer"),
        (r#"{"input":"fastq","stages":["import","import"]}"#, "duplicate stage"),
        (r#"{"input":"fastq","stages":["frobnicate"]}"#, "unknown stage"),
        (r#"{"input":"fastq","stages":[]}"#, "empty plan"),
    ] {
        let header = format!(
            r#"{{"type":"submit-job","seq":9,"name":"x","tenant":"t","priority":"normal","plan":{bad_plan},"input":{{"kind":"fastq"}},"chunk_size":100,"reference":[]}}"#
        );
        let mut raw = Vec::new();
        raw.extend_from_slice(&(header.len() as u32).to_be_bytes());
        raw.extend_from_slice(&0u32.to_be_bytes());
        raw.extend_from_slice(header.as_bytes());
        stream.write_all(&raw).unwrap();
        match persona::wire::read_message(&mut reader).unwrap().unwrap() {
            (Message::Error { seq, code, message }, _) => {
                assert_eq!(code, ErrorCode::InvalidPlan, "{why}: {message}");
                assert_eq!(seq, 9, "{why}");
            }
            other => panic!("{why}: expected invalid-plan error, got {other:?}"),
        }
    }

    // The connection is intact after every rejection: a valid submit
    // on the same stream is accepted.
    let mut client_side_ok = WireClient::connect(server.local_addr()).unwrap();
    let job = client_side_ok.submit(wire_submit(&fx, "ok", "t", Plan::import_only())).unwrap();
    assert_eq!(client_side_ok.wait(job).unwrap().status, WireJobStatus::Completed);
    // And spec-level mismatches (valid plan, wrong input kind) come
    // back as invalid-request through the typed client error.
    let mut mismatched = wire_submit(&fx, "bad", "t", Plan::from_aligned());
    mismatched.input = SubmitInput::Fastq(fastq::to_bytes(&fx.reads));
    match client_side_ok.submit(mismatched) {
        Err(persona::wire::WireClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::InvalidRequest)
        }
        other => panic!("expected invalid-request, got {other:?}"),
    }
}

/// Live introspection over the wire: a second connection fetches a
/// running job's metrics and trace mid-flight, the metrics snapshot is
/// byte-for-byte the in-process registry's, and the post-completion
/// trace equals `PersonaService::trace_json`.
#[test]
fn introspection_over_the_wire_matches_in_process_state() {
    let fx = Fixture::new(8009, 1_000);
    let slow: Arc<dyn Aligner> =
        Arc::new(SlowAligner { inner: fx.aligner.clone(), delay: Duration::from_millis(2) });
    let server = serve(slow, 1);
    let addr = server.local_addr();

    let mut submitter = WireClient::connect(addr).unwrap();
    let job = submitter.submit(wire_submit(&fx, "traced", "lab", Plan::full())).unwrap();
    wait_for(|| submitter.status(job).unwrap() == WireJobStatus::Running, "job to dispatch");

    // Mid-job trace: valid partial timeline — the running stages'
    // spans are open, so the dump carries bare begins.
    let mut inspector = WireClient::connect(addr).unwrap();
    let mut mid = String::new();
    wait_for(
        || {
            mid = inspector.trace(job).expect("mid-job trace over tcp");
            mid.contains("\"ph\":\"B\"")
        },
        "open spans in the mid-job trace",
    );
    assert!(mid.contains("\"traceEvents\""), "{mid}");
    assert!(mid.contains("\"name\":\"align\""), "align span missing mid-job: {mid}");

    // Mid-job metrics: freeze the registry so the job's own progress
    // (and this very request's wire counters) cannot slip between the
    // two snapshots, then the TCP-fetched snapshot must equal the
    // in-process one exactly.
    let registry = server.service().runtime().telemetry().clone();
    registry.set_enabled(false);
    let over_wire = inspector.metrics().expect("metrics over tcp");
    let in_process = server.service().metrics();
    assert_eq!(
        over_wire, in_process,
        "wire metrics snapshot diverges from the in-process registry"
    );
    registry.set_enabled(true);
    // The server's own wire instrumentation is in the snapshot: this
    // connection's requests were counted before the freeze.
    assert!(over_wire.counter("wire.bytes_in").unwrap_or(0) > 0, "{over_wire:?}");
    assert!(over_wire.counter("wire.bytes_out").unwrap_or(0) > 0, "{over_wire:?}");
    let decode = over_wire.histogram("wire.frame_decode_ns").expect("decode histogram");
    assert!(decode.count > 0);
    // And the job's executor activity shows up too.
    assert!(over_wire.histogram("executor.task_latency_ns").is_some(), "{over_wire:?}");

    // A job id the server never dispatched gets the typed error.
    match inspector.trace(999_999) {
        Err(persona::wire::WireClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownJob)
        }
        other => panic!("expected unknown-job error, got {other:?}"),
    }

    let outcome = submitter.wait(job).expect("traced job completes");
    assert_eq!(outcome.status, WireJobStatus::Completed);

    // Post-completion: the wire dump is the in-process dump, and every
    // span has closed into a complete ("X") event.
    let done = inspector.trace(job).expect("post-completion trace");
    assert_eq!(Some(done.clone()), server.service().trace_json(job));
    assert!(done.contains("\"ph\":\"X\""), "{done}");
    assert!(!done.contains("\"ph\":\"B\""), "span left open after completion: {done}");
}

/// Regression: the dispatcher used to flip a job to `running` before
/// its runner thread had registered the job's trace, so a client that
/// saw `running` could be told `unknown-job`. Ask for the trace the
/// instant the job leaves the queue — no sleep between the two requests
/// — across enough submissions to land in that window.
#[test]
fn a_job_seen_dispatched_always_has_a_trace() {
    let fx = Fixture::new(8011, 40);
    let server = serve(fx.aligner.clone(), 2);
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    for i in 0..250 {
        let job =
            client.submit(wire_submit(&fx, &format!("t{i}"), "lab", Plan::import_only())).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while client.status(job).unwrap() == WireJobStatus::Queued {
            assert!(Instant::now() < deadline, "job {job} never dispatched");
        }
        if let Err(e) = client.trace(job) {
            panic!("job {job} (submission {i}) left the queue but has no trace: {e:?}");
        }
    }
}

/// The job registry has no purge cliff. With the one runner held by a
/// gated job, every other job is cancelled in the queue: a job
/// cancelled just before the registry reaches 4,096 entries still
/// answers after the next submission, and once more than `JOB_RETAIN`
/// jobs have ended, only the one that ended first is forgotten.
#[test]
fn a_full_registry_forgets_only_the_earliest_ended_job() {
    let fx = Fixture::new(8012, 50);
    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let server = serve(gated, 1);
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let held = client.submit(wire_submit(&fx, "held", "lab", Plan::full())).unwrap();
    wait_for(|| client.status(held).unwrap() == WireJobStatus::Running, "job to dispatch");

    let one_read = fastq::to_bytes(&fx.reads[..1]);
    let submit = |client: &mut WireClient, name: String| {
        let mut submit = wire_submit(&fx, &name, "lab", Plan::import_only());
        submit.input = SubmitInput::Fastq(one_read.clone());
        client.submit(submit).unwrap()
    };
    let mut cancelled = Vec::new();
    let submit_and_cancel = |client: &mut WireClient, cancelled: &mut Vec<u64>| {
        let job = submit(client, format!("c{}", cancelled.len()));
        client.cancel(job).unwrap();
        cancelled.push(job);
    };
    // The held job and 4,095 cancelled ones: 4,096 entries.
    while cancelled.len() < JOB_RETAIN - 1 {
        submit_and_cancel(&mut client, &mut cancelled);
    }
    let queued = submit(&mut client, "queued".into());
    let last = *cancelled.last().unwrap();
    assert_eq!(client.status(last).unwrap(), WireJobStatus::Cancelled, "job {last} forgotten");

    // Two more ended jobs make JOB_RETAIN + 1.
    submit_and_cancel(&mut client, &mut cancelled);
    submit_and_cancel(&mut client, &mut cancelled);
    match client.status(cancelled[0]) {
        Err(persona::wire::WireClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownJob)
        }
        other => panic!("expected the earliest-ended job to be forgotten, got {other:?}"),
    }
    let mut expected = vec![held, queued];
    expected.extend(&cancelled[1..]);
    expected.sort_unstable();
    let listed: Vec<u64> = client.list_jobs().unwrap().iter().map(|j| j.job_id).collect();
    assert_eq!(listed, expected);
    assert_eq!(client.status(queued).unwrap(), WireJobStatus::Queued);
    gate.open();
    assert_eq!(client.wait(queued).unwrap().status, WireJobStatus::Completed);
}

/// A version-mismatched hello is rejected with `unsupported-version`
/// and the connection closes.
#[test]
fn version_mismatch_is_rejected_at_handshake() {
    let fx = Fixture::new(8008, 50);
    let server = serve(fx.aligner.clone(), 1);
    // An unknown version and the retired protocol v1 alike: a typed
    // refusal, then EOF.
    for version in [999, 1] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        write_frame(&mut stream, &Message::Hello { version }, &[]).unwrap();
        match persona::wire::read_message(&mut reader).unwrap().unwrap() {
            (Message::Error { code, .. }, _) => {
                assert_eq!(code, ErrorCode::UnsupportedVersion, "version {version}")
            }
            other => panic!("version {version}: expected unsupported-version, got {other:?}"),
        }
        assert!(persona::wire::read_message(&mut reader).unwrap().is_none(), "version {version}");
    }

    // A request before hello is rejected too.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_frame(&mut stream, &Message::Report { seq: 1 }, &[]).unwrap();
    match RawFrame::read_from(&mut reader).unwrap().unwrap().message().unwrap() {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidRequest),
        other => panic!("expected invalid-request, got {other:?}"),
    }
}
