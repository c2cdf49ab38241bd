//! A bound `WireServer` runs exactly one event-loop thread, whatever
//! the machine's CPU count. In a binary of its own: wire servers bound
//! by parallel tests would add loop threads to the count.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::runtime::PersonaRuntime;
use persona::wire::WireClient;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_server::{PersonaService, ServiceConfig, WireServer, WireServerConfig};

/// Threads of this process whose name starts with `prefix` (the
/// kernel keeps the first 15 bytes of a thread name).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn a_bound_wire_server_runs_one_event_loop_thread() {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(rt, ServiceConfig::default());
    let mut server = WireServer::bind("127.0.0.1:0", service, WireServerConfig::default())
        .expect("bind loopback wire server");
    // A thread names itself once it starts: round trips on a few
    // connections make sure every loop that serves one has run.
    let mut clients: Vec<WireClient> =
        (0..8).map(|_| WireClient::connect(server.local_addr()).expect("connect")).collect();
    for client in &mut clients {
        client.list_jobs().expect("list-jobs round trip");
    }
    assert_eq!(threads_named("persona-wire-lo"), 1, "event-loop threads of a bound server");
    drop(clients);
    server.stop();
    assert_eq!(threads_named("persona-wire-lo"), 0, "event-loop threads after stop");
}
