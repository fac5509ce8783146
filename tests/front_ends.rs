//! One request, one kernel. Every CLI command reports the kernel that
//! `cogent generate` prints for the same flags, and `cogent serve`
//! answers the same request with the same kernel, the same audit
//! document and the same diagnostics as the CLI.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;

use cogent::generator::{ServeConfig, Server};
use cogent::obs::json::Json;

/// Runs the CLI: exit code, stdout, stderr.
fn cogent(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cogent"))
        .args(args)
        .env_remove("COGENT_TRACE")
        .output()
        .expect("spawning the cogent binary");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// One POST over loopback: the status and the parsed body.
fn post(addr: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect to the server");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.split_whitespace().nth(1).unwrap().parse().unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    (status, Json::parse(body).unwrap())
}

/// The lines naming the kernel a report describes.
fn kernel_lines(report: &str) -> Vec<&str> {
    let kernel = ["configuration:", "provenance:", "predicted:"];
    let lines = report.lines();
    lines
        .filter(|l| kernel.iter().any(|p| l.starts_with(p)))
        .collect()
}

#[test]
fn every_command_reports_the_kernel_generate_prints() {
    for (command, flags) in [
        ("explain", &["--accumulate"][..]),
        ("profile", &["--passes", "default"]),
    ] {
        let args = [&["abcd-aebf-dfce", "--size", "24"][..], flags].concat();
        let (_, _, generated) = cogent(&[&["generate"][..], &args].concat());
        let (code, report, _) = cogent(&[&[command][..], &args].concat());
        assert_eq!(code, Some(0), "{command} {flags:?}");
        let want = kernel_lines(&generated);
        assert_eq!(want.len(), 3, "{generated}");
        assert_eq!(kernel_lines(&report), want, "{command} {flags:?}");
    }
}

/// A span tree without its timings: one line per span, indented by
/// depth, naming the span and its counters.
fn span_shape(node: &cogent::obs::SpanNode, depth: usize, out: &mut String) {
    out.push_str(&format!(
        "{}{} {:?}\n",
        "  ".repeat(depth),
        node.name,
        node.counters
    ));
    for child in &node.children {
        span_shape(child, depth + 1, out);
    }
}

/// `COGENT_THREADS` sizes job pools only: a single generation's trace has
/// the same spans, nesting and counters with the variable unset and at 4.
#[test]
fn explain_traces_do_not_depend_on_cogent_threads() {
    let explain = |threads: Option<&str>| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_cogent"));
        command
            .args(["explain", "abcd-aebf-dfce", "--size", "16", "--json"])
            .env_remove("COGENT_TRACE")
            .env_remove("COGENT_THREADS");
        if let Some(threads) = threads {
            command.env("COGENT_THREADS", threads);
        }
        let out = command.output().expect("spawning the cogent binary");
        assert_eq!(out.status.code(), Some(0), "COGENT_THREADS={threads:?}");
        let trace =
            cogent::obs::PipelineTrace::from_json_str(&String::from_utf8(out.stdout).unwrap())
                .expect("explain --json prints a trace");
        let mut shape = String::new();
        span_shape(&trace.root, 0, &mut shape);
        shape
    };
    let unset = explain(None);
    assert!(unset.contains("prune.checked"), "{unset}");
    assert_eq!(unset, explain(Some("4")));
}

/// Removes every `*_latency_ns` member: wall times differ run to run.
fn without_latencies(json: Json) -> Json {
    match json {
        Json::Object(members) => Json::Object(
            members
                .into_iter()
                .filter(|(name, _)| !name.ends_with("_latency_ns"))
                .map(|(name, value)| (name, without_latencies(value)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.into_iter().map(without_latencies).collect()),
        other => other,
    }
}

#[test]
fn serve_and_the_cli_answer_one_request_alike() {
    let server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("spawn the server");
    let addr = server.addr().to_string();
    let member =
        |json: &Json, name: &str| json.get(name).and_then(Json::as_str).map(str::to_string);

    // Specs of the replay trace's working set, all at uniform 16.
    for (spec, device, flags) in [
        ("abcd-aebf-dfce", "", &[][..]),
        ("abc-bda-dc", "", &[]),
        (
            "abcd-aebd-ce",
            r#","device":"p100","precision":"f32","store_mode":"accumulate""#,
            &["--device", "p100", "--f32", "--accumulate"],
        ),
    ] {
        let body =
            |extra: &str| format!(r#"{{"contraction":"{spec}","uniform":16{device}{extra}}}"#);
        let args = [&[spec, "--size", "16"][..], flags].concat();

        let (status, kernel) = post(&addr, "/v1/generate", &body(""));
        assert_eq!(status, 200, "{}", body(""));
        assert_eq!(kernel.get("schema"), Some(&Json::from("cogent.kernel.v1")));
        let (code, source, report) = cogent(&[&["generate"][..], &args].concat());
        assert_eq!(code, Some(0), "{args:?}");
        // `generate` ends the source with one newline of its own.
        let source = source.strip_suffix('\n').map(str::to_string);
        assert!(member(&kernel, "cuda_source") == source, "{args:?}");
        let configuration = report
            .lines()
            .find_map(|l| l.strip_prefix("configuration: "));
        assert_eq!(member(&kernel, "config").as_deref(), configuration);

        let (status, served) = post(&addr, "/v1/audit", &body(r#","top_k":4"#));
        assert_eq!(status, 200, "{}", body(r#","top_k":4"#));
        let (code, printed, _) =
            cogent(&[&["audit"][..], &args, &["--top", "4", "--json"]].concat());
        assert_eq!(code, Some(0), "{args:?}");
        let printed = Json::parse(&printed).unwrap();
        assert_eq!(
            without_latencies(served),
            without_latencies(printed),
            "{args:?}"
        );
    }

    for (body, flags) in [
        (
            r#"{"contraction":"ij-ik-kj","uniform":8,"device":"h100"}"#,
            &["--size", "8", "--device", "h100"][..],
        ),
        (
            r#"{"contraction":"ij-ik-kj","sizes":{"i":0,"j":8,"k":8}}"#,
            &["--sizes", "i=0,j=8,k=8"],
        ),
        (
            r#"{"contraction":"ij-ik-kj","sizes":{"i":4,"j":8}}"#,
            &["--sizes", "i=4,j=8"],
        ),
    ] {
        let (status, error) = post(&addr, "/v1/generate", body);
        assert_eq!(status, 400, "{body}");
        let detail = error
            .get("error")
            .and_then(|e| member(e, "detail"))
            .unwrap();
        let (code, _, stderr) = cogent(&[&["generate", "ij-ik-kj"][..], flags].concat());
        assert_eq!(code, Some(2), "{flags:?}");
        assert_eq!(stderr, format!("cogent: {detail}\n"), "{body}");
    }
    server.shutdown();
}
