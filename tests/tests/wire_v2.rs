//! Protocol v2 end to end: pipelined requests multiplexed on one
//! connection, credit-based flow control pausing and resuming output
//! streams, and attach-by-name and job listing.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::plan::Plan;
use persona::runtime::PersonaRuntime;
use persona::wire::{
    read_message, write_frame, Message, SubmitInput, WireClient, WireInput, WireJobStatus,
    WireSubmit, PROTOCOL_VERSION,
};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_align::Aligner;
use persona_dataflow::Priority;
use persona_formats::fastq;
use persona_integration_tests::common::{wait_for, Fixture};
use persona_server::{
    JobInput, JobSpec, PersonaService, ServiceConfig, WireServer, WireServerConfig,
};

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

fn wire_submit(fx: &Fixture, name: &str, tenant: &str) -> WireSubmit {
    WireSubmit {
        name: name.to_string(),
        tenant: tenant.to_string(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: SubmitInput::Fastq(fastq::to_bytes(&fx.reads)),
        chunk_size: 100,
        reference: fx.reference.clone(),
    }
}

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

/// Many jobs pipelined on ONE connection: all submits sent before any
/// reply is taken, all waits in flight together, streams demultiplexed
/// by seq — and every output byte-identical to the in-process service.
#[test]
fn pipelined_submits_and_waits_demultiplex_on_one_connection() {
    let fx = Fixture::new(8101, 300);
    let reference = in_process_sam(&fx, "ref");
    let server = serve(fx.aligner.clone(), 4);

    let mut client = WireClient::connect(server.local_addr()).unwrap();

    // Send every submit before taking any reply.
    let submit_seqs: Vec<u64> = (0..4)
        .map(|i| {
            client
                .submit_pipelined(wire_submit(&fx, &format!("pipe-{i}"), "lab"))
                .expect("pipelined submit")
        })
        .collect();
    // Take the job ids in reverse order: replies must demultiplex.
    let mut job_ids: Vec<(u64, u64)> = Vec::new();
    for &seq in submit_seqs.iter().rev() {
        job_ids.push((seq, client.take_submit(seq).expect("job accepted")));
    }
    // All four waits in flight at once, resolved in submit order.
    job_ids.sort_by_key(|&(seq, _)| seq);
    let wait_seqs: Vec<(u64, u64)> = job_ids
        .iter()
        .map(|&(_, job_id)| (client.wait_pipelined(job_id).expect("pipelined wait"), job_id))
        .collect();
    for &(wait_seq, job_id) in &wait_seqs {
        let outcome = client.take_wait(wait_seq).expect("wait stream resolves");
        assert_eq!(outcome.status, WireJobStatus::Completed, "job {job_id}");
        assert_eq!(outcome.sam, reference, "job {job_id}: pipelined SAM diverges");
    }
}

/// Two connections with interleaved pipelined waits never leak each
/// other's output chunks: each client reassembles exactly its own
/// bytes.
#[test]
fn concurrent_connections_do_not_cross_output_streams() {
    let fx_a = Fixture::new(8102, 250);
    let fx_b = Fixture::new(8103, 350);
    let ref_a = in_process_sam(&fx_a, "ref-a");
    let server = serve(fx_a.aligner.clone(), 4);
    let addr = server.local_addr();

    let mut ca = WireClient::connect(addr).unwrap();
    let mut cb = WireClient::connect(addr).unwrap();
    // fx_b's reads against fx_a's aligner still complete — the point
    // here is stream isolation, not alignment quality.
    let sa = ca.submit_pipelined(wire_submit(&fx_a, "iso-a", "lab-a")).unwrap();
    let sb = cb.submit_pipelined(wire_submit(&fx_b, "iso-b", "lab-b")).unwrap();
    let ja = ca.take_submit(sa).unwrap();
    let jb = cb.take_submit(sb).unwrap();
    let wa = ca.wait_pipelined(ja).unwrap();
    let wb = cb.wait_pipelined(jb).unwrap();
    let oa = ca.take_wait(wa).unwrap();
    let ob = cb.take_wait(wb).unwrap();
    assert_eq!(oa.status, WireJobStatus::Completed);
    assert_eq!(ob.status, WireJobStatus::Completed);
    assert_eq!(oa.sam, ref_a, "client A's stream was corrupted");
    assert_ne!(ob.sam, oa.sam, "distinct datasets must produce distinct SAM");
}

/// Credit flow control over raw frames: a v2 connection that grants no
/// credit has its output stream paused (`wire.backpressure_stalls`),
/// and each `credit` grant releases exactly the granted chunks.
#[test]
fn zero_credit_window_stalls_the_export_until_granted() {
    let fx = Fixture::new(8104, 200);
    let server = serve(fx.aligner.clone(), 1);
    let registry = server.service().runtime().telemetry().clone();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_frame(&mut stream, &Message::Hello { version: PROTOCOL_VERSION }, &[]).unwrap();
    let (hello, _) = read_message(&mut reader).unwrap().unwrap();
    assert_eq!(hello, Message::ServerHello { version: PROTOCOL_VERSION });

    // Deliberately no credit grant: the window stays at zero.
    let submit = Message::SubmitJob {
        seq: 1,
        name: "stalled".into(),
        tenant: "lab".into(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: WireInput::Fastq,
        chunk_size: 100,
        reference: fx.reference.clone(),
    };
    write_frame(&mut stream, &submit, &fastq::to_bytes(&fx.reads)).unwrap();
    let (accepted, _) = read_message(&mut reader).unwrap().unwrap();
    let job_id = match accepted {
        Message::JobAccepted { job_id, .. } => job_id,
        other => panic!("expected job-accepted, got {other:?}"),
    };
    write_frame(&mut stream, &Message::Wait { seq: 2, job_id }, &[]).unwrap();

    // First the non-terminal lifecycle event, then the terminal one;
    // with a zero window the chunk itself must NOT follow — the server
    // records a backpressure stall instead.
    let stalls = registry.counter("wire.backpressure_stalls");
    let (ev, _) = read_message(&mut reader).unwrap().unwrap();
    assert!(matches!(ev, Message::JobEvent { .. }), "got {ev:?}");
    wait_for(|| stalls.value() >= 1, "the export to stall on the empty window");

    // One credit releases exactly the one SAM chunk (200 reads is far
    // below the 1 MiB chunk size), then the job-done follows.
    write_frame(&mut stream, &Message::Credit { chunks: 1 }, &[]).unwrap();
    let mut sam = Vec::new();
    loop {
        let (msg, body) = read_message(&mut reader).unwrap().expect("stream stays open");
        match msg {
            Message::JobEvent { status, .. } => {
                assert_eq!(status, WireJobStatus::Completed);
            }
            Message::OutputChunk { seq, index, last, .. } => {
                assert_eq!(seq, 2);
                assert_eq!(index, 0);
                assert!(last, "200 reads fit one chunk");
                sam.extend_from_slice(&body);
            }
            Message::JobDone { seq, status, .. } => {
                assert_eq!(seq, 2);
                assert_eq!(status, WireJobStatus::Completed);
                break;
            }
            other => panic!("unexpected frame in wait stream: {other:?}"),
        }
    }
    assert!(!sam.is_empty(), "the granted credit must release the chunk");
}

/// Attach-by-name and job listing: a second connection resolves a job
/// it never submitted and streams the same bytes the submitter saw.
#[test]
fn attach_by_name_and_list_jobs_resolve_other_connections_jobs() {
    let fx = Fixture::new(8105, 250);
    let server = serve(fx.aligner.clone(), 2);
    let addr = server.local_addr();

    let mut submitter = WireClient::connect(addr).unwrap();
    let job = submitter.submit(wire_submit(&fx, "shared-sample", "lab-a")).unwrap();
    let submitter_outcome = submitter.wait(job).unwrap();
    assert_eq!(submitter_outcome.status, WireJobStatus::Completed);

    let mut other = WireClient::connect(addr).unwrap();
    let jobs = other.list_jobs().unwrap();
    let listed = jobs.iter().find(|j| j.name == "shared-sample").expect("job is listed");
    assert_eq!(listed.job_id, job);
    assert_eq!(listed.tenant, "lab-a");
    assert_eq!(listed.status, WireJobStatus::Completed);

    let (attached_id, status) = other.attach("shared-sample").unwrap();
    assert_eq!(attached_id, job);
    assert_eq!(status, WireJobStatus::Completed);
    let attached_outcome = other.wait(attached_id).unwrap();
    assert_eq!(
        attached_outcome.sam, submitter_outcome.sam,
        "attached stream must be byte-identical to the submitter's"
    );

    // A name nobody submitted is a typed unknown-job error.
    let err = other.attach("no-such-sample").unwrap_err();
    assert!(err.to_string().contains("no job named"), "got: {err}");
}
