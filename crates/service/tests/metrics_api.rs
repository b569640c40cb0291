//! Socket tests for the observability surface: `GET /metrics`,
//! `GET /v1/traces/:id`, the `x-mobipriv-trace` response header, and
//! the registry block embedded in `/v1/stats`.
//!
//! The contract under test is the determinism boundary: tracing and
//! metrics must never leak into response *bodies* — identical requests
//! stay byte-identical — while every response carries a distinct trace
//! id out of band, in a header.

use mobipriv_model::{write_csv, Dataset};
use mobipriv_obs::scrape;
use mobipriv_service::client::{header, request_full};
use mobipriv_service::{Server, ServerConfig, ServerHandle};
use mobipriv_synth::scenarios;

fn start() -> ServerHandle {
    Server::bind(ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn csv_of(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(dataset, &mut out).unwrap();
    out
}

#[test]
fn identical_requests_share_bytes_but_not_trace_ids() {
    let body = csv_of(&scenarios::serving_day(6, 2).dataset);
    let server = start();
    let addr = server.addr();
    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=3";

    let (status_a, headers_a, body_a) = request_full(addr, "POST", target, &body).unwrap();
    let (status_b, headers_b, body_b) = request_full(addr, "POST", target, &body).unwrap();
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(body_a, body_b, "tracing leaked into the response body");

    let trace_a = header(&headers_a, "x-mobipriv-trace").expect("first trace header");
    let trace_b = header(&headers_b, "x-mobipriv-trace").expect("second trace header");
    assert_eq!(trace_a.len(), 16, "trace id is 16 hex chars: {trace_a}");
    assert!(trace_a.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(trace_a, trace_b, "every request gets its own trace id");
    assert_eq!(header(&headers_b, "x-mobipriv-cache"), Some("hit"));

    // The first request computed: its timeline covers the full stage
    // sequence. The replay was served from cache: no compute span.
    let (status, _, trace_doc) =
        request_full(addr, "GET", &format!("/v1/traces/{trace_a}"), b"").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(trace_doc).unwrap();
    assert!(text.contains(&format!("\"id\":\"{trace_a}\"")), "{text}");
    for stage in ["parse", "digest", "cache_lookup", "compute", "serialize"] {
        assert!(text.contains(&format!("\"stage\":\"{stage}\"")), "{text}");
    }
    let (status, _, replay_doc) =
        request_full(addr, "GET", &format!("/v1/traces/{trace_b}"), b"").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(replay_doc).unwrap();
    assert!(text.contains("\"stage\":\"cache_lookup\""), "{text}");
    assert!(!text.contains("\"stage\":\"compute\""), "{text}");

    let (status, _, _) = request_full(addr, "GET", "/v1/traces/deadbeef00000000", b"").unwrap();
    assert_eq!(status, 404, "unknown trace ids are 404");
    server.shutdown();
}

#[test]
fn report_requests_trace_a_metrics_stage() {
    let body = csv_of(&scenarios::serving_day(6, 2).dataset);
    let server = start();
    let addr = server.addr();
    let stages_of = |target: &str| {
        let (status, headers, _) = request_full(addr, "POST", target, &body).unwrap();
        assert_eq!(status, 200, "{target}");
        let trace = header(&headers, "x-mobipriv-trace").expect("trace header");
        let (status, _, doc) =
            request_full(addr, "GET", &format!("/v1/traces/{trace}"), b"").unwrap();
        assert_eq!(status, 200);
        (headers, String::from_utf8(doc).unwrap())
    };

    // The utility report's metrics get their own span, not the
    // serializer's.
    let (headers, text) = stages_of("/v1/anonymize?mechanism=promesse&alpha=100&seed=3&report=1");
    assert!(header(&headers, "x-mobipriv-distortion-mean-m").is_some());
    for stage in ["compute", "serialize", "metrics"] {
        assert!(text.contains(&format!("\"stage\":\"{stage}\"")), "{text}");
    }
    // Without a report there is nothing to measure.
    let (_, text) = stages_of("/v1/anonymize?mechanism=promesse&alpha=100&seed=4");
    assert!(text.contains("\"stage\":\"compute\""), "{text}");
    assert!(!text.contains("\"stage\":\"metrics\""), "{text}");
    server.shutdown();
}

#[test]
fn metrics_endpoint_renders_parsable_prometheus_text() {
    let body = csv_of(&scenarios::serving_day(5, 2).dataset);
    let server = start();
    let addr = server.addr();
    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=1";
    for _ in 0..3 {
        let (status, _, _) = request_full(addr, "POST", target, &body).unwrap();
        assert_eq!(status, 200);
    }
    let (status, _, _) = request_full(addr, "GET", "/nowhere", b"").unwrap();
    assert_eq!(status, 404);

    let (status, headers, text) = request_full(addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(text).expect("UTF-8 exposition");
    let parsed = scrape::parse(&text).expect("own scraper parses own rendering");

    assert_eq!(
        parsed.value("mobipriv_http_requests_total", &[("status", "200")]),
        Some(3.0)
    );
    assert_eq!(
        parsed.value("mobipriv_http_requests_total", &[("status", "404")]),
        Some(1.0)
    );
    assert_eq!(parsed.value("mobipriv_cache_misses_total", &[]), Some(1.0));
    assert_eq!(parsed.value("mobipriv_cache_hits_total", &[]), Some(2.0));
    assert_eq!(parsed.value("mobipriv_cache_entries", &[]), Some(1.0));
    assert_eq!(parsed.value("mobipriv_http_shed_total", &[]), Some(0.0));
    assert_eq!(parsed.value("mobipriv_jobs_failed_total", &[]), Some(0.0));
    // Per-stage latency histograms carry the served requests.
    for stage in ["parse", "cache_lookup", "write"] {
        let count = parsed
            .value("mobipriv_stage_seconds_count", &[("stage", stage)])
            .unwrap_or(0.0);
        assert!(count >= 3.0, "stage {stage} count {count}");
    }
    assert!(
        parsed
            .value("mobipriv_http_request_seconds_count", &[])
            .unwrap_or(0.0)
            >= 4.0
    );
    server.shutdown();
}

#[test]
fn stats_embeds_the_registry_and_stays_json() {
    let body = csv_of(&scenarios::serving_day(4, 2).dataset);
    let server = start();
    let addr = server.addr();
    let (status, _, _) =
        request_full(addr, "POST", "/v1/anonymize?mechanism=raw&seed=0", &body).unwrap();
    assert_eq!(status, 200);
    let (status, headers, stats) = request_full(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let text = String::from_utf8(stats).unwrap();
    // The pre-existing flat counters survive unchanged…
    for field in ["\"computations\":", "\"cache_hits\":", "\"cache_misses\":"] {
        assert!(text.contains(field), "{text}");
    }
    // …and the full registry rides along under "metrics".
    assert!(text.contains("\"metrics\":{"), "{text}");
    assert!(
        text.contains("\"mobipriv_http_requests_total{status=200}\":"),
        "{text}"
    );
    assert!(text.contains("\"mobipriv_cache_misses_total\":1"), "{text}");
    server.shutdown();
}
