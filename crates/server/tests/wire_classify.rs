//! How the server classifies a `submit-job` whose header does not
//! decode: `invalid-plan` exactly when the decode failed at the plan,
//! `bad-message` otherwise — whatever text the error happens to quote.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::runtime::PersonaRuntime;
use persona::wire::{read_message, write_frame, ErrorCode, Message, PROTOCOL_VERSION};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_server::{PersonaService, ServiceConfig, WireServer, WireServerConfig};

fn submit_header(priority: &str, plan: &str) -> String {
    format!(
        r#"{{"type":"submit-job","seq":9,"name":"x","tenant":"t","priority":{priority},"plan":{plan},"input":{{"kind":"fastq"}},"chunk_size":100}}"#
    )
}

#[test]
fn submit_decode_errors_are_classified_by_the_failing_field() {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(rt, ServiceConfig::default());
    let server = WireServer::bind("127.0.0.1:0", service, WireServerConfig { aligner: None })
        .expect("bind loopback wire server");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_frame(&mut stream, &Message::Hello { version: PROTOCOL_VERSION }, &[]).unwrap();
    let _ = read_message(&mut reader).unwrap().unwrap();

    let good_plan = r#"{"input":"fastq","stages":["import"]}"#;
    let bad_plan = r#"{"input":"fastq","stages":["align"]}"#;
    for (header, want_code, want_message) in [
        // The bad value quotes the plan field's name; the plan is fine.
        (
            submit_header(r#""field `plan`""#, good_plan),
            ErrorCode::BadMessage,
            "deserialize error: unknown priority `field `plan``",
        ),
        (
            submit_header(r#""normal""#, bad_plan),
            ErrorCode::InvalidPlan,
            "deserialize error: field `plan`: deserialize error: invalid plan: stage `align` \
             needs a `encoded-agd` dataset but the plan starts from `fastq` and no earlier \
             stage produces it",
        ),
        (
            submit_header(r#""normal""#, "[]"),
            ErrorCode::InvalidPlan,
            "deserialize error: field `plan`: deserialize error: missing field `input`",
        ),
    ] {
        let mut raw = Vec::new();
        raw.extend_from_slice(&(header.len() as u32).to_be_bytes());
        raw.extend_from_slice(&0u32.to_be_bytes());
        raw.extend_from_slice(header.as_bytes());
        stream.write_all(&raw).unwrap();
        match read_message(&mut reader).unwrap().unwrap() {
            (Message::Error { seq, code, message }, _) => {
                assert_eq!((seq, code), (9, want_code), "{header}: {message}");
                assert_eq!(message, want_message);
            }
            other => panic!("{header}: expected an error reply, got {other:?}"),
        }
    }
}
