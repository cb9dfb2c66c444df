//! The per-host memory guard: what a booted fleet host costs in live heap.
//!
//! A fleet host is the whole single-host stack (a `Sim`, a Tableau
//! dispatcher, probe vCPUs), so per-host bytes are what bound a fleet's
//! size. A probe-only host queues nothing after its first `run_until`
//! (every later event is a core timer, held in the per-core registers), so
//! its event queue — a near and a far binary heap — keeps only the
//! capacity its high-water mark left: the per-core startup re-schedules.
//! The bounds are what keep fixed per-host storage from coming back (a
//! queue that built 26 KiB of empty slots at boot put a host at ~31 KiB).
//!
//! The bytes are counted by this binary's own global allocator, which is
//! why the file holds a single test: nothing else allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fleet::{Fleet, FleetConfig};
use rtsched::time::Nanos;

/// The system allocator, counting the bytes it has handed out and not yet
/// been given back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged, so `System` meets the `GlobalAlloc` contract for it; the
// counter is a statistic and touches none of the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `fleet-churn`'s fleet shape: 320 hosts of 2 cores.
const HOSTS: usize = 320;
/// The control epoch of `experiments fleet` and `e2ebench`.
const EPOCH: Nanos = Nanos(50_000_000);

#[test]
fn a_probe_only_host_holds_under_ten_kib() {
    let base = LIVE.load(Ordering::Relaxed);
    let per_host = || (LIVE.load(Ordering::Relaxed) - base) / HOSTS;

    let mut fleet = Fleet::new(FleetConfig::new(HOSTS, 2)).expect("boot plan");
    let boot = per_host();
    for k in 1..=40 {
        fleet.step(EPOCH * k);
    }
    fleet.settle();
    let stepped = per_host();
    println!("live heap per host: {boot} B at boot, {stepped} B after 40 epochs");
    assert!(boot <= 8 * 1024, "{boot} B per host at boot");
    assert!(stepped <= 10 * 1024, "{stepped} B per host after 40 epochs");
    drop(fleet);
}
