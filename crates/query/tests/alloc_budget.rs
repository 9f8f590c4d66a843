//! The request path's allocation budget, enforced: a daemon answering
//! pipelined lookups must not allocate per query beyond the one owned
//! value a `route`/`resolve` answer carries (`RouteAnswer.path`).
//!
//! The counter is process-wide — server thread, event loop, framer,
//! parser, engine, renderer and this test's own client loop all count —
//! so the client side is written not to allocate in the measured region
//! either. This file holds a single test: a second one running beside
//! it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use net_topology::InternetSize;
use rand::prelude::*;
use rpi_core::Experiment;
use rpi_query::serve::{ServeConfig, Server};
use rpi_query::{parse, render_response, QueryEngine};

// A statistic that publishes no other data: Relaxed is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every `alloc`/`realloc` call process-wide.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect
// that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // the caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WINDOWS: usize = 64;
const DEPTH: usize = 128;
const WARMUP_WINDOWS: usize = 8;

/// One pipelined write and the bytes the daemon must answer it with.
struct Window {
    request: Vec<u8>,
    expected: Vec<u8>,
}

/// The lookup mix of the benchmark's `point_pipelined` workload: route
/// 30 / resolve 25 / sa 20 / rov 15 / rel 5 / summary 5.
fn windows(engine: &QueryEngine, exp: &Experiment) -> Vec<Window> {
    let mut pairs = Vec::new();
    for (vantage, _) in engine.vantages() {
        let rows: Vec<_> = match exp.lg_table(vantage) {
            Some(t) => t.rows.keys().copied().collect(),
            None => exp.collector_table(vantage).rows.keys().copied().collect(),
        };
        pairs.extend(rows.into_iter().map(|p| (vantage, p)));
    }
    assert!(!pairs.is_empty(), "the tiny world has routes");
    let mut rng = StdRng::seed_from_u64(14);
    (0..WARMUP_WINDOWS + WINDOWS)
        .map(|_| {
            let (mut request, mut expected) = (Vec::new(), Vec::new());
            for _ in 0..DEPTH {
                let (v, p) = *pairs.choose(&mut rng).unwrap();
                let (w, _) = *pairs.choose(&mut rng).unwrap();
                let line = match rng.gen_range(0..100u8) {
                    0..=29 => format!("route {v} {p}"),
                    30..=54 => format!("resolve {v} {p}"),
                    55..=74 => format!("sa {v} {p}"),
                    75..=89 => format!("rov {v} {p}"),
                    90..=94 => format!("rel {v} {w}"),
                    _ => format!("summary {v}"),
                };
                let req = parse(&line).expect("generated lines parse");
                let resp = engine.execute(&req).expect("generated lines execute");
                request.extend_from_slice(line.as_bytes());
                request.push(b'\n');
                expected.extend_from_slice(render_response(&req, &resp).as_bytes());
                expected.push(b'\n');
            }
            Window { request, expected }
        })
        .collect()
}

#[test]
fn pipelined_lookups_stay_within_one_allocation_per_query() {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let mut engine = QueryEngine::default();
    engine.ingest_experiment(&exp, "t0");
    let engine = Arc::new(engine);
    let windows = windows(&engine, &exp);

    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
        .expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run().expect("serve loop"));

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    conn.set_nodelay(true).unwrap();
    let longest = windows.iter().map(|w| w.expected.len()).max().unwrap();
    let mut answer = vec![0u8; longest];

    let mut before = 0;
    for (i, window) in windows.iter().enumerate() {
        if i == WARMUP_WINDOWS {
            // Buffers have grown to their working size, lazy state is set up.
            before = ALLOCS.load(Ordering::Relaxed);
        }
        conn.write_all(&window.request).expect("send");
        let answer = &mut answer[..window.expected.len()];
        conn.read_exact(answer).expect("a full window of responses");
        assert!(
            answer == &window.expected[..],
            "window {i}: the served bytes are not render_response(execute(parse(line)))"
        );
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    handle.shutdown();
    serving.join().expect("server thread");

    let per_query = allocs as f64 / (WINDOWS * DEPTH) as f64;
    assert!(
        per_query <= 1.0,
        "{allocs} allocations over {} queries = {per_query:.3} per query (budget 1.0)",
        WINDOWS * DEPTH
    );
    // What is left is the owned answer: most of the mix's route/resolve
    // lookups (55 %) return a `RouteAnswer` holding its path.
    eprintln!("alloc budget: {per_query:.3} allocations/query at depth {DEPTH}");
}
