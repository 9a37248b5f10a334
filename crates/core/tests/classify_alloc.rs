//! Per-record classification must not allocate: the single-pass summary
//! classifies every record about sixteen times, once per accumulator.
//!
//! This binary installs a global allocator that forwards to the system
//! allocator and counts the allocations of the calling thread, so tests
//! running in parallel on other threads cannot disturb a count.

use dropbox_analysis::classify::{
    dropbox_role, provider_of, provider_of_name, storage_tag, transfer_size, DropboxRole, Provider,
};
use nettrace::flow::{DirStats, FlowClose};
use nettrace::{Endpoint, FlowKey, FlowRecord, Ipv4};
use simcore::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // `const`-initialised and without a destructor: reading or bumping it
    // never allocates, so the allocator below cannot re-enter itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation counter.
struct CountingAlloc;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the only other work is bumping a
// thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly what `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and count the allocations this thread made while it ran.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A record named by its SNI, its DNS FQDN, its certificate CN or its
/// HTTP host (the four sources `FlowRecord::server_name` falls back
/// through), or by none of them.
fn record(source: usize, name: &str, up: u64, down: u64) -> FlowRecord {
    let name = Some(name.to_owned());
    FlowRecord {
        key: FlowKey::new(
            Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
            Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
        ),
        first_syn: SimTime::EPOCH,
        last_packet: SimTime::from_secs(10),
        up: DirStats {
            bytes: up,
            ..DirStats::default()
        },
        down: DirStats {
            bytes: down,
            ..DirStats::default()
        },
        min_rtt_ms: None,
        rtt_samples: 0,
        tls_sni: name.clone().filter(|_| source == 0),
        server_fqdn: name.clone().filter(|_| source == 1),
        tls_certificate_cn: name.clone().filter(|_| source == 2),
        http_host: name.filter(|_| source == 3),
        notify: None,
        close: FlowClose::Fin,
        aborted: false,
    }
}

/// Records covering every provider and every Dropbox role, each name
/// under every name source, as stores and as retrieves.
fn records() -> Vec<FlowRecord> {
    let names = [
        "dl-client3.dropbox.com",
        "dl.dropbox.com",
        "api-content.dropbox.com",
        "client-lb.dropbox.com",
        "notify12.dropbox.com",
        "www.dropbox.com",
        "dl-debug2.dropbox.com",
        "api.dropbox.com",
        "*.dropbox.com",
        "p04-content.icloud.com",
        "duc281.livefilestore.com",
        "drive.google.com",
        "api.sugarsync.com",
        "r3.youtube.com",
        "dropbox.com.evil.org",
        "xdropbox.com",
        "",
    ];
    let mut out = Vec::new();
    for name in names {
        for source in 0..5 {
            out.push(record(source, name, 1_000_000, 4_500));
            out.push(record(source, name, 700, 1_000_000));
        }
    }
    out
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let (s, n) = allocations_in(|| format!(".{}", black_box("dropbox.com")));
    assert_eq!(s, ".dropbox.com");
    assert!(n >= 1, "a `format!` must be counted, got {n}");
}

#[test]
fn per_record_classification_does_not_allocate() {
    let records = records();
    let mut providers = [false; Provider::Unknown as usize + 1];
    let mut roles = [false; DropboxRole::ALL.len()];
    let ((), allocations) = allocations_in(|| {
        for f in &records {
            providers[provider_of(black_box(f)) as usize] = true;
            if let Some(role) = dropbox_role(black_box(f)) {
                roles[role as usize] = true;
            }
            black_box(storage_tag(black_box(f)));
            black_box(transfer_size(black_box(f)));
            black_box(provider_of_name(black_box(f).server_name().unwrap_or("")));
        }
    });
    assert_eq!(allocations, 0, "classifying {} records", records.len());
    assert!(
        providers.iter().all(|&p| p),
        "every Provider, Unknown included"
    );
    assert!(roles.iter().all(|&r| r), "every DropboxRole");
}
