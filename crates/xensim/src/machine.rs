//! Machine model: topology and hardware cost parameters.
//!
//! The paper evaluates on two Intel Xeon servers:
//!
//! * a 16-core, 2-socket (8 cores each) E5-2667 at 3.2 GHz — the main
//!   platform for Tables 1 and Figs. 5–8;
//! * a 48-core, 4-socket (12 cores each) E7-8857 — used for Table 2 and the
//!   planner scalability experiments (Figs. 3–4).
//!
//! The simulator needs only the parameters that scheduling decisions
//! interact with: core/socket layout (migration penalties, per-socket
//! runqueues in Credit2), context-switch and IPI costs. Defaults are typical
//! for the hardware class and documented per field.

use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;

/// Hardware topology and per-operation hardware costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Machine {
    /// Number of CPU sockets.
    pub n_sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Cost of a context switch between vCPUs on the same core
    /// (register/FPU state, address-space switch, warm caches).
    pub context_switch: Nanos,
    /// Extra cost when a vCPU is dispatched on a core it did not run on
    /// last (cold private caches; larger across sockets is folded in).
    pub migration_penalty: Nanos,
    /// Latency from sending an IPI to the remote core acting on it.
    pub ipi_latency: Nanos,
}

impl Machine {
    /// The paper's 16-core, 2-socket Xeon E5-2667.
    ///
    /// The context-switch cost covers register/VMCS state switching; the
    /// migration penalty is the extra hit a vCPU pays when dispatched on a
    /// core it did not run on last (Sec. 7.5 discusses this migration-cost
    /// asymmetry: under Tableau only split vCPUs pay it, under the dynamic
    /// schedulers everyone occasionally does). The values model the direct
    /// architectural costs; slow cache-refill tails are left out, which
    /// makes the simulation *conservative* about how much dynamic
    /// schedulers' migrations hurt.
    pub fn xeon_16core() -> Machine {
        Machine {
            n_sockets: 2,
            cores_per_socket: 8,
            context_switch: Nanos::from_micros(2),
            migration_penalty: Nanos::from_micros(3),
            ipi_latency: Nanos::from_micros(1),
        }
    }

    /// The paper's 48-core, 4-socket Xeon E7-8857.
    pub fn xeon_48core() -> Machine {
        Machine {
            n_sockets: 4,
            cores_per_socket: 12,
            ..Machine::xeon_16core()
        }
    }

    /// A small machine for tests.
    pub fn small(n_cores: usize) -> Machine {
        Machine {
            n_sockets: 1,
            cores_per_socket: n_cores,
            context_switch: Nanos::from_micros(2),
            migration_penalty: Nanos::from_micros(3),
            ipi_latency: Nanos::from_micros(1),
        }
    }

    /// Total number of cores.
    pub fn n_cores(&self) -> usize {
        self.n_sockets * self.cores_per_socket
    }

    /// Whether `core` exists on this machine. Fault configurations name
    /// cores by index; injection silently skips indices beyond the
    /// topology so one config can drive machines of different sizes.
    pub fn has_core(&self, core: usize) -> bool {
        core < self.n_cores()
    }

    /// The socket a core belongs to.
    pub fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }

    /// Whether two cores share a socket (cheap migrations, shared LLC).
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platforms() {
        let m16 = Machine::xeon_16core();
        assert_eq!(m16.n_cores(), 16);
        assert_eq!(m16.n_sockets, 2);
        let m48 = Machine::xeon_48core();
        assert_eq!(m48.n_cores(), 48);
        assert_eq!(m48.n_sockets, 4);
    }

    #[test]
    fn socket_mapping() {
        let m = Machine::xeon_16core();
        assert_eq!(m.socket_of(0), 0);
        assert_eq!(m.socket_of(7), 0);
        assert_eq!(m.socket_of(8), 1);
        assert!(m.same_socket(0, 7));
        assert!(!m.same_socket(7, 8));
    }

    #[test]
    fn small_machine() {
        let m = Machine::small(4);
        assert_eq!(m.n_cores(), 4);
        assert!(m.same_socket(0, 3));
        assert!(m.has_core(3));
        assert!(!m.has_core(4));
    }
}
