//! Host-speed references: fixed units of work written in this crate, so
//! no change to the program under test can speed them up or slow them
//! down. Timed at idle points of a run, they tell how fast the shared
//! host ran during that run, and end-to-end times are scaled to a host on
//! which each unit takes its reference time.
//!
//! Two units, because the host's slow phases hit two kinds of work
//! differently: the compute unit tracks in-process work (allocation,
//! hashing, sorting — the Datalog workload), the round-trip unit tracks
//! the serve workloads (socket calls, wake-ups of a thread on the other
//! vCPU).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::ledger::median;

/// Seconds one compute unit takes on the reference host (about its median
/// on the 2-vCPU Xeon host the bounds were measured on).
pub const COMPUTE_REFERENCE_S: f64 = 0.048;
/// Seconds one round-trip unit takes on the reference host.
pub const ROUND_TRIP_REFERENCE_S: f64 = 0.0053;

/// Map updates per compute unit.
const UPDATES: u64 = 1 << 19;
/// Round trips per round-trip unit.
const TRIPS: usize = 250;

/// One compute unit: 2¹⁹ seeded updates into a fresh, growing hash map
/// (≈4·10⁵ keys), then its values collected and sorted. Allocation,
/// page faults of fresh memory, hashing and sorting, as in a Datalog
/// pass.
pub fn compute_unit() -> f64 {
    let t0 = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x & 0xF_FFFF).or_default() += i;
    }
    let mut values: Vec<u64> = map.into_values().collect();
    values.sort_unstable();
    std::hint::black_box(values);
    t0.elapsed().as_secs_f64()
}

/// One round-trip unit: 250 round trips of 32 bytes over loopback TCP
/// to an echo thread of this process. Set-up is not timed.
pub fn round_trip_unit() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("echo address: {e}"))?;
    let conn = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
    let _ = conn.set_nodelay(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            let Ok((mut echo, _)) = listener.accept() else {
                return;
            };
            let _ = echo.set_nodelay(true);
            let mut buf = [0u8; 32];
            while echo.read_exact(&mut buf).is_ok() && echo.write_all(&buf).is_ok() {}
        });
        // Owned here, so it closes on every way out and the echo ends.
        let mut conn = conn;
        let mut buf = [1u8; 32];
        let t0 = Instant::now();
        for _ in 0..TRIPS {
            conn.write_all(&buf)
                .and_then(|()| conn.read_exact(&mut buf))
                .map_err(|e| format!("echo round trip: {e}"))?;
        }
        Ok(t0.elapsed().as_secs_f64())
    })
}

/// The units of one kind timed during a run.
pub struct Reference {
    reference_s: f64,
    units: Vec<f64>,
}

impl Reference {
    pub fn compute() -> Reference {
        Reference {
            reference_s: COMPUTE_REFERENCE_S,
            units: Vec::new(),
        }
    }

    pub fn round_trip() -> Reference {
        Reference {
            reference_s: ROUND_TRIP_REFERENCE_S,
            units: Vec::new(),
        }
    }

    pub fn push(&mut self, unit_s: f64) {
        self.units.push(unit_s);
    }

    /// The median unit of this run, in seconds.
    pub fn unit_s(&self) -> f64 {
        median(&self.units)
    }

    /// Factor that turns a time measured in this run into reference-host
    /// time; a rate is divided by it.
    pub fn scale(&self) -> f64 {
        self.reference_s / self.unit_s().max(1e-9)
    }
}
