//! Integration tests driving a live server over real sockets with a
//! plain [`TcpStream`] client: listing, parameterized runs, the
//! `ParamError` → 400 mapping, sweep POSTs, streamed grid responses,
//! background jobs (create/poll/stream/resume), keep-alive and
//! pipelining, cache and single-flight behaviour under concurrent
//! identical requests, shutdown drain, and malformed-request
//! resilience.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cqla_core::experiments::{find, ids};
use cqla_core::json;
use cqla_dist::Client;
use cqla_serve::{ServeConfig, Server, ServerHandle};
use cqla_sweep::{Sweep, SweepRun};

/// A live server on an ephemeral port, shut down (and joined) on drop.
struct Live {
    addr: SocketAddr,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Live {
    fn start(workers: usize) -> Self {
        Self::start_with(workers, ServeConfig::default())
    }

    fn start_with(workers: usize, config: ServeConfig) -> Self {
        let server =
            Server::bind_with("127.0.0.1:0", workers, config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Self {
            addr,
            handle,
            join: Some(join),
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join()
                .expect("server thread exits")
                .expect("clean shutdown");
        }
    }
}

/// Reads one framed HTTP response off `reader`: status code, raw header
/// block, and the body — `Content-Length`-framed or de-chunked, so
/// callers compare streamed and full documents byte for byte. The
/// framing logic itself is the shared `cqla-dist` client; this wrapper
/// just panics with context instead of returning `io::Result`.
fn read_response(reader: &mut impl BufRead) -> (u16, String, String) {
    let response = cqla_dist::client::read_response(reader).expect("read framed response");
    (response.status, response.head, response.body)
}

/// The shared socket-level client, with a generous read timeout for
/// slow CI machines.
fn client() -> Client {
    Client {
        connect_timeout: Duration::from_secs(10),
        read_timeout: Duration::from_secs(30),
    }
}

/// Sends raw bytes on a fresh connection, returns `(status code, body)`.
fn raw(addr: SocketAddr, request: &str) -> (u16, String) {
    let response = client()
        .raw(&addr.to_string(), request)
        .expect("raw exchange completes");
    (response.status, response.body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let response = client()
        .get(&addr.to_string(), target)
        .expect("GET completes");
    (response.status, response.body)
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let response = client()
        .post(&addr.to_string(), target, body)
        .expect("POST completes");
    (response.status, response.body)
}

/// Polls `/v1/jobs/{jid}` until its status leaves `running`.
fn wait_for_job(addr: SocketAddr, jid: &str) -> json::Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = get(addr, &format!("/v1/jobs/{jid}"));
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("job document is JSON");
        if doc.get("status").and_then(|v| v.as_str()) != Some("running") {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {jid} never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn healthz_reports_alive() {
    let live = Live::start(2);
    let (status, body) = get(live.addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("health is JSON");
    assert_eq!(doc.get("ok"), Some(&json::Json::Bool(true)));
    assert_eq!(
        doc.get("service").and_then(|v| v.as_str()),
        Some("cqla-serve")
    );
}

#[test]
fn experiments_listing_covers_the_registry() {
    let live = Live::start(2);
    let (status, body) = get(live.addr, "/v1/experiments");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("listing is JSON");
    let artifacts = doc.get("artifacts").unwrap().as_arr().unwrap();
    let listed: Vec<&str> = artifacts
        .iter()
        .map(|a| a.get("id").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(listed, ids(), "listing must enumerate the whole registry");
}

#[test]
fn run_returns_the_artifact_document() {
    let live = Live::start(2);
    let (status, body) = get(live.addr, "/v1/run/table4");
    assert_eq!(status, 200);
    let expected = format!(
        "{}\n",
        find("table4").unwrap().run().document("table4").to_pretty()
    );
    assert_eq!(body, expected, "body must match the registry document");
}

#[test]
fn run_applies_parameter_overrides() {
    let live = Live::start(2);
    let (status, default_body) = get(live.addr, "/v1/run/table2");
    assert_eq!(status, 200);
    let (status, current_body) = get(live.addr, "/v1/run/table2?tech=current");
    assert_eq!(status, 200);
    assert_ne!(default_body, current_body, "tech override must matter");
    // Query order does not matter: both spellings resolve to one point.
    let a = get(live.addr, "/v1/run/machine?bits=64&blocks=9");
    let b = get(live.addr, "/v1/run/machine?blocks=9&bits=64");
    assert_eq!(a, b);
}

#[test]
fn param_errors_map_to_400_with_diagnostics() {
    let live = Live::start(2);
    let (status, body) = get(live.addr, "/v1/run/table4?tech=warp");
    assert_eq!(status, 400, "{body}");
    let doc = json::parse(&body).unwrap();
    let message = doc.get("error").unwrap().as_str().unwrap();
    assert!(message.contains("bad value `warp`"), "{message}");
    let hint = doc.get("hint").unwrap().as_str().unwrap();
    assert!(hint.contains("tech=<current|projected>"), "{hint}");
    // Unknown parameter keys carry the did-you-mean diagnostics too.
    let (status, body) = get(live.addr, "/v1/run/table4?tehc=current");
    assert_eq!(status, 400);
    assert!(body.contains("did you mean `tech`?"), "{body}");
    // A value smuggling cache-key separator bytes cannot forge a cached
    // valid entry's key: it must miss, fail validation, and get a 400.
    let (status, _) = get(live.addr, "/v1/run/machine?bits=64&blocks=9");
    assert_eq!(status, 200);
    let (status, body) = get(live.addr, "/v1/run/machine?bits=64%7C6%3Ablocks%7C1%3A9");
    assert_eq!(status, 400, "forged key must not hit the cache: {body}");
}

#[test]
fn unknown_artifacts_are_404_with_suggestions() {
    let live = Live::start(2);
    let (status, body) = get(live.addr, "/v1/run/tabel4");
    assert_eq!(status, 404);
    assert!(body.contains("did you mean `table4`?"), "{body}");
    let (status, _) = get(live.addr, "/v1/no-such-route");
    assert_eq!(status, 404);
}

#[test]
fn sweep_post_matches_the_engine() {
    let live = Live::start(2);
    let spec = "code=steane width=32,64 xfer=5";
    let (status, body) = post(live.addr, "/v1/sweep", spec);
    assert_eq!(status, 200, "{body}");
    let expected = format!(
        "{}\n",
        SweepRun::execute(&Sweep::parse(spec).unwrap(), 1)
            .to_json()
            .to_pretty()
    );
    assert_eq!(body, expected, "sweep body must match a serial engine run");
    // Builtin names work too.
    let (status, body) = post(live.addr, "/v1/sweep", "quick");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("points").and_then(|v| v.as_f64()), Some(8.0));
}

/// The `(cache_hits, cache_misses)` pair `/v1/stats` reports.
fn hits_and_misses(addr: SocketAddr) -> (f64, f64) {
    let (_, stats) = get(addr, "/v1/stats");
    let doc = json::parse(&stats).unwrap();
    let count = |key| doc.get(key).and_then(|v| v.as_f64()).unwrap();
    (count("cache_hits"), count("cache_misses"))
}

/// The document `cqla sweep SPEC --format json` prints.
fn cli_sweep(spec: &str) -> String {
    let run = SweepRun::execute(&Sweep::parse(spec).unwrap(), 1);
    format!("{}\n", run.to_json().to_pretty())
}

#[test]
fn repeated_sweeps_are_served_from_the_cache() {
    let live = Live::start(2);
    let golden = include_str!("../../../tests/golden/grid_sweep.json");
    for (spec, expected) in [("quick", cli_sweep("quick")), ("grid", golden.to_owned())] {
        let points = Sweep::parse(spec).unwrap().len() as f64;
        let (status, cold) = post(live.addr, "/v1/sweep", spec);
        assert_eq!(status, 200, "{cold}");
        assert_eq!(cold, expected, "{spec}: cold sweep == CLI document");
        let (hits, misses) = hits_and_misses(live.addr);
        let (status, warm) = post(live.addr, "/v1/sweep", spec);
        assert_eq!(status, 200, "{warm}");
        assert_eq!(warm, expected, "{spec}: warm sweep == CLI document");
        assert_eq!(
            hits_and_misses(live.addr),
            (hits + points, misses),
            "{spec}: a repeated sweep is all hits"
        );
    }
    // A sweep job over the same points is served from the cache too.
    let (_, misses) = hits_and_misses(live.addr);
    let (status, created) = post(live.addr, "/v1/jobs/sweep", "quick");
    assert_eq!(status, 202, "{created}");
    let jid = json::parse(&created)
        .unwrap()
        .get("job")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(
        wait_for_job(live.addr, &jid).get("passed"),
        Some(&json::Json::Bool(true))
    );
    let (_, streamed) = get(live.addr, &format!("/v1/jobs/{jid}/stream"));
    assert_eq!(streamed, cli_sweep("quick"));
    assert_eq!(
        hits_and_misses(live.addr).1,
        misses,
        "the job computed nothing"
    );
}

#[test]
fn non_commuting_clause_orders_never_share_a_wrong_entry() {
    let live = Live::start(2);
    // `width` re-provisions the blocks, so the first spelling runs
    // 9 blocks twice and the second runs 4 and 9.
    let (status, provisioned) = post(live.addr, "/v1/sweep", "blocks=4,9 width=64");
    assert_eq!(status, 200, "{provisioned}");
    assert_eq!(provisioned, cli_sweep("blocks=4,9 width=64"));
    assert_eq!(hits_and_misses(live.addr).1, 1.0, "both points are one run");
    let (status, explicit) = post(live.addr, "/v1/sweep", "width=64 blocks=4,9");
    assert_eq!(status, 200, "{explicit}");
    assert_eq!(explicit, cli_sweep("width=64 blocks=4,9"));
    assert_ne!(provisioned, explicit);
    // Only the 4-block point was new.
    assert_eq!(hits_and_misses(live.addr).1, 2.0);
}

#[test]
fn bad_sweep_specs_are_400_with_spec_diagnostics() {
    let live = Live::start(2);
    let (status, body) = post(live.addr, "/v1/sweep", "widht=64");
    assert_eq!(status, 400);
    assert!(body.contains("did you mean"), "{body}");
    let (status, body) = post(live.addr, "/v1/sweep", "   ");
    assert_eq!(status, 400);
    assert!(body.contains("empty sweep spec"), "{body}");
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let live = Live::start(2);
    let stream = TcpStream::connect(live.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(&stream);
    // Several exchanges ride the same connection; each response
    // announces keep-alive.
    for _ in 0..5 {
        (&stream)
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: cqla\r\n\r\n")
            .unwrap();
        let (status, head, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
    }
    // `Connection: close` ends it: the response says so and the peer
    // then reads EOF.
    (&stream)
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: cqla\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "no bytes may follow the final response");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let live = Live::start(2);
    let stream = TcpStream::connect(live.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Three requests in one write; the third opts out of keep-alive.
    (&stream)
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: cqla\r\n\r\n\
              GET /v1/experiments HTTP/1.1\r\nHost: cqla\r\n\r\n\
              GET /v1/stats HTTP/1.1\r\nHost: cqla\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("\"service\""), "healthz first: {body}");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("\"artifacts\""), "listing second: {body}");
    let (status, head, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("\"requests\""), "stats third: {body}");
    assert!(head.contains("Connection: close"), "{head}");
}

#[test]
fn idle_keep_alive_connections_are_closed() {
    let live = Live::start_with(
        2,
        ServeConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    );
    let stream = TcpStream::connect(live.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One exchange keeps the connection open…
    (&stream)
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: cqla\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    // …then silence: the server hangs up at the idle timeout.
    let start = Instant::now();
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("server closes cleanly");
    assert!(rest.is_empty());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "idle close must come from the timeout, not the client's"
    );
}

#[test]
fn concurrent_identical_requests_hit_the_cache() {
    let live = Live::start(4);
    // Warm the cache with one sequential request…
    let (status, first) = get(live.addr, "/v1/run/table4");
    assert_eq!(status, 200);
    // …then hammer the same run from many clients at once.
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| get(live.addr, "/v1/run/table4")))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (status, body) in &bodies {
        assert_eq!(*status, 200);
        assert_eq!(body, &first, "every client sees identical bytes");
    }
    let (_, stats) = get(live.addr, "/v1/stats");
    let doc = json::parse(&stats).unwrap();
    let hits = doc.get("cache_hits").unwrap().as_f64().unwrap();
    let misses = doc.get("cache_misses").unwrap().as_f64().unwrap();
    assert!(hits >= 8.0, "8 warm requests must all hit; stats: {stats}");
    assert_eq!(misses, 1.0, "only the first request computes; {stats}");
}

#[test]
fn concurrent_cold_misses_coalesce_onto_one_execution() {
    let live = Live::start(4);
    // No warmup: everyone races for the same uncached key.
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| get(live.addr, "/v1/run/table4")))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let first = &bodies[0].1;
    for (status, body) in &bodies {
        assert_eq!(*status, 200);
        assert_eq!(body, first, "every client sees identical bytes");
    }
    let (_, stats) = get(live.addr, "/v1/stats");
    let doc = json::parse(&stats).unwrap();
    let hits = doc.get("cache_hits").unwrap().as_f64().unwrap();
    let misses = doc.get("cache_misses").unwrap().as_f64().unwrap();
    let coalesced = doc.get("coalesced").unwrap().as_f64().unwrap();
    assert_eq!(misses, 1.0, "single-flight: one execution; {stats}");
    assert_eq!(
        hits + coalesced,
        7.0,
        "the other seven reuse it (hit or coalesced); {stats}"
    );
}

#[test]
fn grid_queries_and_the_sweep_id_route_merge_per_point_documents() {
    let live = Live::start(2);
    // A value-set query fans out into a grid document…
    let (status, via_query) = get(live.addr, "/v1/run/fig2?bits=8,16&cap=15");
    assert_eq!(status, 200, "{via_query}");
    let doc = json::parse(&via_query).expect("grid document is JSON");
    assert_eq!(doc.get("artifact").and_then(|v| v.as_str()), Some("fig2"));
    assert_eq!(doc.get("points").and_then(|v| v.as_f64()), Some(2.0));
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[1]
            .get("params")
            .and_then(|p| p.get("bits"))
            .and_then(|v| v.as_str()),
        Some("16")
    );
    // …and the per-experiment sweep route answers identically.
    let (status, via_post) = post(live.addr, "/v1/sweep/fig2", "bits=8,16 cap=15");
    assert_eq!(status, 200, "{via_post}");
    assert_eq!(via_query, via_post, "both grid spellings must agree");
    // Each grid point left a cache entry a single run now hits.
    let (_, before) = get(live.addr, "/v1/stats");
    let hits_before = json::parse(&before)
        .unwrap()
        .get("cache_hits")
        .unwrap()
        .as_f64()
        .unwrap();
    let (status, _) = get(live.addr, "/v1/run/fig2?bits=8&cap=15");
    assert_eq!(status, 200);
    let (_, after) = get(live.addr, "/v1/stats");
    let after = json::parse(&after).unwrap();
    assert_eq!(
        after.get("cache_hits").unwrap().as_f64(),
        Some(hits_before + 1.0),
        "grid points must warm the single-run cache"
    );
    assert!(
        after
            .get("cache_evictions")
            .and_then(|v| v.as_f64())
            .is_some(),
        "stats must report evictions"
    );
    // The arithmetic-step range form survives the query string (`+` is
    // not form-decoded to a space).
    let (status, body) = get(live.addr, "/v1/run/fig2?bits=8..=16:+4&cap=15");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json::parse(&body)
            .unwrap()
            .get("points")
            .and_then(|v| v.as_f64()),
        Some(3.0),
        "8, 12, 16"
    );
    // Grid parse errors are spanned 400s; unknown artifacts stay 404;
    // GET on the sweep route is a 405.
    let (status, body) = post(live.addr, "/v1/sweep/fig2", "bits=8..4");
    assert_eq!(status, 400);
    assert!(body.contains("inclusive"), "{body}");
    let (status, body) = post(live.addr, "/v1/sweep/fgi2", "bits=8");
    assert_eq!(status, 404);
    assert!(body.contains("did you mean `fig2`?"), "{body}");
    let (status, _) = get(live.addr, "/v1/sweep/fig2");
    assert_eq!(status, 405);
}

#[test]
fn grid_responses_stream_chunked_and_concatenate_byte_identically() {
    let live = Live::start(2);
    // Drive the exchange by hand to see the framing itself.
    let stream = TcpStream::connect(live.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (&stream)
        .write_all(
            b"GET /v1/run/fig2?bits=8,16,24 HTTP/1.1\r\nHost: cqla\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let (status, head, streamed) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        head.contains("Transfer-Encoding: chunked"),
        "grid responses must stream: {head}"
    );
    // The de-chunked concatenation is byte-identical to the CLI's
    // merged document for the same grid.
    let grid =
        cqla_core::experiments::Grid::parse("fig2", &find("fig2").unwrap().specs(), "bits=8,16,24")
            .unwrap();
    let expected = format!(
        "{}\n",
        cqla_sweep::GridRun::execute(&grid, 1).to_json().to_pretty()
    );
    assert_eq!(streamed, expected);
}

#[test]
fn jobs_run_in_the_background_and_streams_resume_from_any_offset() {
    let live = Live::start(2);
    // A registry grid job streams the `POST /v1/sweep/{id}` document,
    // and a sweep job the `POST /v1/sweep` document for its one spec:
    // a builtin, or an expression whose newlines are plain whitespace.
    let cases = [
        ("/v1/jobs/fig2", "/v1/sweep/fig2", "bits=8,16"),
        ("/v1/jobs/sweep", "/v1/sweep", "quick"),
        (
            "/v1/jobs/sweep",
            "/v1/sweep",
            "code=steane\nbits=32,64 xfer=5\n",
        ),
    ];
    for (route, direct, body) in cases {
        let (status, expected) = post(live.addr, direct, body);
        assert_eq!(status, 200, "{direct}: {expected}");
        let points = json::parse(&expected)
            .unwrap()
            .get("points")
            .and_then(|v| v.as_f64())
            .unwrap() as usize;
        let (status, created) = post(live.addr, route, body);
        assert_eq!(status, 202, "{route}: {created}");
        let doc = json::parse(&created).expect("job document is JSON");
        let jid = doc.get("job").and_then(|v| v.as_str()).unwrap().to_owned();
        assert_eq!(
            doc.get("points").and_then(|v| v.as_f64()),
            Some(points as f64)
        );
        // Poll until done.
        let done = wait_for_job(live.addr, &jid);
        assert_eq!(done.get("status").and_then(|v| v.as_str()), Some("done"));
        assert_eq!(
            done.get("done").and_then(|v| v.as_f64()),
            Some(points as f64)
        );
        assert_eq!(done.get("passed"), Some(&json::Json::Bool(true)));
        // The full stream is byte-identical to the direct response.
        let (status, full) = get(live.addr, &format!("/v1/jobs/{jid}/stream"));
        assert_eq!(status, 200);
        assert_eq!(full, expected, "{route}: job stream == direct response");
        // Resuming from offset K yields exactly the suffix after K
        // fragments: prefix + resume == full document.
        let (status, tail) = get(live.addr, &format!("/v1/jobs/{jid}/stream?from=1"));
        assert_eq!(status, 200);
        assert!(
            full.ends_with(&tail),
            "{route}: resume must be a suffix:\n{tail}"
        );
        assert!(tail.len() < full.len(), "resume skips delivered fragments");
        // from == total: only the epilogue remains.
        let (status, epilogue) = get(live.addr, &format!("/v1/jobs/{jid}/stream?from={points}"));
        assert_eq!(status, 200);
        assert_eq!(
            epilogue, "\n  ]\n}\n",
            "{route}: epilogue closes the document"
        );
        // Past the end is a 400; bad offsets are 400.
        let past = format!("/v1/jobs/{jid}/stream?from={}", points + 1);
        let (status, _) = get(live.addr, &past);
        assert_eq!(status, 400);
        let (status, _) = get(live.addr, &format!("/v1/jobs/{jid}/stream?from=x"));
        assert_eq!(status, 400);
    }
    // A body is one spec: two lines that both set `code` are a
    // duplicate parameter, not a batch.
    let batch = "code=steane bits=32 xfer=5\ncode=steane bits=64 xfer=5\n";
    let (status, body) = post(live.addr, "/v1/jobs/sweep", batch);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("duplicate parameter `code`"), "{body}");
    // An error on a later line of a spec puts its caret under the token.
    let (status, body) = post(live.addr, "/v1/jobs/sweep", "code=steane bits=32\nwidht=64");
    assert_eq!(status, 400, "{body}");
    let error = json::parse(&body)
        .unwrap()
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert!(error.ends_with("\n  widht=64\n  ^^^^^"), "{error}");
    // Unknown jobs are 404.
    let (status, _) = get(live.addr, "/v1/jobs/j999/stream");
    assert_eq!(status, 404);
    let (status, body) = get(live.addr, "/v1/jobs/nope");
    assert_eq!(status, 404, "{body}");
    // Job stats gauges exist.
    let (_, stats) = get(live.addr, "/v1/stats");
    let doc = json::parse(&stats).unwrap();
    assert!(doc.get("jobs_active").is_some(), "{stats}");
    assert!(doc.get("streams_open").is_some(), "{stats}");
    assert!(doc.get("coalesced").is_some(), "{stats}");
}

#[test]
fn completed_grid_jobs_leave_one_cache_entry_per_point() {
    let live = Live::start(2);
    let (status, created) = post(live.addr, "/v1/jobs/fig2", "bits=8,16,24");
    assert_eq!(status, 202, "{created}");
    let jid = json::parse(&created)
        .unwrap()
        .get("job")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_owned();
    let done = wait_for_job(live.addr, &jid);
    assert_eq!(done.get("status").and_then(|v| v.as_str()), Some("done"));
    // Each fresh point is one cached single-run body; the completed
    // job adds nothing else to the cache.
    let (_, stats) = get(live.addr, "/v1/stats");
    let doc = json::parse(&stats).unwrap();
    assert_eq!(doc.get("cache_misses").and_then(|v| v.as_f64()), Some(3.0));
    assert_eq!(
        doc.get("cache_entries").and_then(|v| v.as_f64()),
        Some(3.0),
        "{stats}"
    );
}

#[test]
fn completed_jobs_retire_in_completion_order() {
    let live = Live::start_with(
        2,
        ServeConfig {
            job_retention: 1,
            ..ServeConfig::default()
        },
    );
    let job = |expr: &str| {
        let (status, body) = post(live.addr, "/v1/jobs/fig2", expr);
        assert_eq!(status, 202, "{body}");
        json::parse(&body)
            .unwrap()
            .get("job")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_owned()
    };
    let first = job("bits=8");
    wait_for_job(live.addr, &first);
    let second = job("bits=16");
    wait_for_job(live.addr, &second);
    // Retention 1: completing the second job retires the first.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = get(live.addr, &format!("/v1/jobs/{first}"));
        if status == 410 {
            assert!(body.contains("retired"), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "first job never retired");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, _) = get(live.addr, &format!("/v1/jobs/{second}"));
    assert_eq!(status, 200, "newest completed job stays");
}

#[test]
fn malformed_requests_get_400_and_the_server_survives() {
    let live = Live::start(2);
    let (status, body) = raw(live.addr, "NOT A REQUEST\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("malformed request"), "{body}");
    // The worker that answered is still alive and serving.
    let (status, _) = get(live.addr, "/healthz");
    assert_eq!(status, 200);
}

#[test]
fn method_mismatches_are_405() {
    let live = Live::start(2);
    let (status, _) = post(live.addr, "/healthz", "");
    assert_eq!(status, 405);
    let (status, _) = get(live.addr, "/v1/sweep");
    assert_eq!(status, 405);
    let (status, _) = post(live.addr, "/v1/run/table4", "");
    assert_eq!(status, 405);
    let (status, _) = post(live.addr, "/v1/jobs/j1/stream", "");
    assert_eq!(status, 405);
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());
    let (status, body) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("shutting_down"), "{body}");
    join.join()
        .expect("server thread exits")
        .expect("clean shutdown after POST /v1/shutdown");
}

#[test]
fn shutdown_drains_inflight_requests_and_streams() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());
    // Connection A starts a streamed grid…
    let a = TcpStream::connect(addr).expect("connect");
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    (&a).write_all(
        b"GET /v1/run/fig2?bits=8,16,24,32 HTTP/1.1\r\nHost: cqla\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    // …and shutdown lands while it is (or may be) in flight.
    let (status, body) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 200, "{body}");
    // A's response still arrives complete and valid: the worker drains
    // its exchange instead of racing teardown.
    let mut reader = BufReader::new(&a);
    let (status, _, streamed) = read_response(&mut reader);
    assert_eq!(status, 200);
    let doc = json::parse(&streamed).expect("drained stream is complete JSON");
    assert_eq!(doc.get("points").and_then(|v| v.as_f64()), Some(4.0));
    join.join()
        .expect("server thread exits")
        .expect("clean shutdown with a drained stream");
}

#[test]
fn stats_reports_evaluation_memo_counters() {
    let live = Live::start(2);
    let (_, before) = get(live.addr, "/v1/stats");
    let before = json::parse(&before).unwrap();
    // The fields are always present (zero on a fresh process, but other
    // tests in this binary may already have computed).
    let misses_before = before.get("memo_misses").unwrap().as_f64().unwrap();
    let hits_before = before.get("memo_hits").unwrap().as_f64().unwrap();
    // A table4 run shares schedules, ECC metrics, and the QLA baseline
    // across its 24 evaluations, so it must both compute and reuse.
    let (status, _) = get(live.addr, "/v1/run/table4?tech=current");
    assert_eq!(status, 200);
    let (_, after) = get(live.addr, "/v1/stats");
    let after = json::parse(&after).unwrap();
    let misses_after = after.get("memo_misses").unwrap().as_f64().unwrap();
    let hits_after = after.get("memo_hits").unwrap().as_f64().unwrap();
    assert!(misses_after > misses_before, "{after:?}");
    assert!(hits_after > hits_before, "{after:?}");
}
