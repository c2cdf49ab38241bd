//! Fault injection against the event-driven wire front end: clients
//! killed mid-pipeline, with stalled credit windows, or mid-handshake.
//! The server must reap every resource the dead connection held — job
//! slots (cancel-on-disconnect), queued output bytes
//! (`wire.pending_writes` drains to zero), and reply streams
//! (`wire.in_flight_seqs`) — without disturbing other connections.

use std::io::{BufReader, Write as _};
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
use persona_integration_tests::common::{wait_for, Fixture, Gate, GateAligner};
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

/// A client dies with its export stalled on a zero credit window: the
/// bytes queued for it must be released (`wire.pending_writes` drains
/// to zero, `wire.in_flight_seqs` too), and another connection then
/// streams its own job untouched, byte-identical to the in-process
/// reference.
#[test]
fn killing_a_stalled_client_drains_pending_writes() {
    let fx = Fixture::new(8301, 250);
    let reference = in_process_sam(&fx, "ref");
    let server = serve(fx.aligner.clone(), 1);
    let registry = server.service().runtime().telemetry().clone();
    let pending_writes = registry.gauge("wire.pending_writes");
    let in_flight = registry.gauge("wire.in_flight_seqs");
    let connections = registry.gauge("wire.connections");
    let stalls = registry.counter("wire.backpressure_stalls");

    // Raw v2 connection that never grants credit.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream.try_clone().unwrap();
    write_frame(&mut w, &Message::Hello { version: PROTOCOL_VERSION }, &[]).unwrap();
    read_message(&mut reader).unwrap().unwrap();
    let submit = Message::SubmitJob {
        seq: 1,
        name: "doomed".into(),
        tenant: "lab".into(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: WireInput::Fastq,
        chunk_size: 100,
        reference: fx.reference.clone(),
    };
    write_frame(&mut w, &submit, &fastq::to_bytes(&fx.reads)).unwrap();
    let job_id = match read_message(&mut reader).unwrap().unwrap() {
        (Message::JobAccepted { job_id, .. }, _) => job_id,
        (other, _) => panic!("expected job-accepted, got {other:?}"),
    };
    write_frame(&mut w, &Message::Wait { seq: 2, job_id }, &[]).unwrap();
    wait_for(|| stalls.value() >= 1, "the export to stall on the empty window");

    // Kill the client without ever reading its stream.
    drop(w);
    drop(reader);
    drop(stream);

    wait_for(|| connections.value() == 0, "the dead connection to be reaped");
    assert_eq!(pending_writes.value(), 0, "queued bytes for the dead client must be released");
    assert_eq!(in_flight.value(), 0, "the dead client's wait stream must be released");

    // The server is unharmed: a healthy client gets its own bytes,
    // nothing left over from the dead connection's stalled export.
    let mut survivor = WireClient::connect(server.local_addr()).unwrap();
    let job = survivor.submit(wire_submit(&fx, "survivor", "lab")).unwrap();
    let outcome = survivor.wait(job).unwrap();
    assert_eq!(outcome.status, WireJobStatus::Completed);
    assert_eq!(outcome.sam, reference, "survivor's stream was corrupted by the dead export");
    // The server lowers the gauge after `write` returns, by which time
    // the survivor may already hold the bytes: poll, don't sample.
    wait_for(|| pending_writes.value() == 0, "pending writes to drain after the survivor too");
}

/// A pipelined client dies while its job is still running on the only
/// slot: cancel-on-disconnect must free the slot so the next tenant's
/// job can run to completion.
#[test]
fn killing_a_pipelined_client_mid_job_frees_the_slot() {
    let fx = Fixture::new(8302, 400);
    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let server = serve(gated, 1);
    let registry = server.service().runtime().telemetry().clone();
    let connections = registry.gauge("wire.connections");

    let mut victim = WireClient::connect(server.local_addr()).unwrap();
    let job = victim.submit(wire_submit(&fx, "held", "lab-a")).unwrap();
    wait_for(|| victim.status(job).unwrap() == WireJobStatus::Running, "the job to start");
    // Mid-pipeline: a wait stream is in flight when the client dies.
    victim.wait_pipelined(job).unwrap();
    drop(victim);

    wait_for(|| connections.value() == 0, "the dead connection to be reaped");
    gate.open();
    wait_for(
        || server.service().report().tenant("lab-a").map(|t| t.cancelled) == Some(1),
        "disconnect to cancel the held job",
    );

    // The slot is free: a second tenant's job completes.
    let mut next = WireClient::connect(server.local_addr()).unwrap();
    let job2 = next.submit(wire_submit(&fx, "after", "lab-b")).unwrap();
    let outcome = next.wait(job2).unwrap();
    assert_eq!(outcome.status, WireJobStatus::Completed);
    assert!(!outcome.sam.is_empty());
}

/// Connections dropped at every awkward point — before the hello,
/// mid-handshake, mid-frame — leave no residue: the connection gauge
/// returns to zero and the server still serves.
#[test]
fn abrupt_disconnects_at_every_phase_leave_no_residue() {
    let fx = Fixture::new(8303, 150);
    let server = serve(fx.aligner.clone(), 2);
    let registry = server.service().runtime().telemetry().clone();
    let connections = registry.gauge("wire.connections");
    let addr = server.local_addr();

    for round in 0..10u32 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        match round % 3 {
            // Connected, never spoke.
            0 => {}
            // Spoke the hello, died before any request.
            1 => {
                write_frame(&mut w, &Message::Hello { version: PROTOCOL_VERSION }, &[]).unwrap();
            }
            // Died mid-frame: a declared length with no bytes behind it.
            _ => {
                write_frame(&mut w, &Message::Hello { version: PROTOCOL_VERSION }, &[]).unwrap();
                let _ = w.write_all(&1024u32.to_be_bytes());
            }
        }
        drop(w);
        drop(stream);
    }

    wait_for(|| connections.value() == 0, "all dropped connections to be reaped");
    let mut client = WireClient::connect(addr).unwrap();
    let job = client.submit(wire_submit(&fx, "healthy", "lab")).unwrap();
    assert_eq!(client.wait(job).unwrap().status, WireJobStatus::Completed);
}
