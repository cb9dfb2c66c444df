//! vCPU and VM performance specifications.
//!
//! Under Tableau every vCPU is configured with two SLA parameters (Sec. 5):
//!
//! * a **reserved utilization** `U` — the guaranteed minimum share of one
//!   physical core; and
//! * a **maximum scheduling latency** `L` — an upper bound on how long the
//!   vCPU may go without processor service while runnable.
//!
//! Both may come from an explicit SLA, from price-differentiated service
//! tiers, or from a simple fair-share default (`U = m / n`). Utilization is
//! stored in parts-per-million so planner arithmetic stays exact.

use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;

/// Identifies a vCPU within a host configuration.
///
/// Ids are dense indices assigned at VM admission; the planner uses them as
/// `rtsched` task ids, and the dispatch tables refer to vCPUs by this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VcpuId(pub u32);

impl std::fmt::Display for VcpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A reserved CPU share, in parts per million of one core.
///
/// # Examples
///
/// ```
/// use tableau_core::vcpu::Utilization;
///
/// let quarter = Utilization::from_percent(25);
/// assert_eq!(quarter.ppm(), 250_000);
/// assert!(!quarter.is_full_core());
/// assert!(Utilization::FULL.is_full_core());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Utilization(u32);

impl Utilization {
    /// A full dedicated core (`U = 1`).
    pub const FULL: Utilization = Utilization(1_000_000);

    /// Creates a utilization from parts per million, clamped to `[1, 1e6]`.
    pub fn from_ppm(ppm: u32) -> Utilization {
        Utilization(ppm.clamp(1, 1_000_000))
    }

    /// Creates a utilization from whole percent, clamped to `[1, 100]`.
    pub fn from_percent(pct: u32) -> Utilization {
        Utilization::from_ppm(pct.saturating_mul(10_000))
    }

    /// Creates a utilization from a float ratio, clamped to `(0, 1]`.
    pub fn from_ratio(ratio: f64) -> Utilization {
        Utilization::from_ppm((ratio * 1e6).round() as u32)
    }

    /// The fair-share default for `n_vcpus` vCPUs on `n_cores` cores
    /// (`U = m / n`, capped at a full core).
    pub fn fair_share(n_cores: usize, n_vcpus: usize) -> Utilization {
        if n_vcpus == 0 {
            return Utilization::FULL;
        }
        let ppm = (n_cores as u64 * 1_000_000 / n_vcpus as u64).min(1_000_000) as u32;
        Utilization::from_ppm(ppm)
    }

    /// Returns the share in parts per million.
    pub fn ppm(self) -> u32 {
        self.0
    }

    /// Returns the share as a float in `(0, 1]`.
    pub fn as_ratio(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` for a dedicated full core.
    pub fn is_full_core(self) -> bool {
        self.0 == 1_000_000
    }

    /// The guaranteed execution budget within a period of length `t`.
    ///
    /// Rounded *down* to whole nanoseconds (but at least 1 ns): rounding up
    /// would make exactly-full configurations — e.g. the paper's four 25%
    /// VMs per core — inadmissible by a few nanoseconds. The resulting
    /// deficit is below one nanosecond per period (under 100 ns/s), far
    /// beneath enforcement granularity.
    pub fn budget_in(self, t: Nanos) -> Nanos {
        let num = t.as_nanos() as u128 * self.0 as u128;
        Nanos(((num / 1_000_000) as u64).max(1))
    }
}

/// The SLA of a single vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcpuSpec {
    /// Reserved minimum share of one core.
    pub utilization: Utilization,
    /// Maximum tolerable scheduling latency.
    pub latency: Nanos,
    /// `true` if the vCPU is *capped*: it may never exceed its reservation,
    /// and does not take part in second-level (work-conserving) scheduling.
    pub capped: bool,
}

impl VcpuSpec {
    /// Creates an uncapped vCPU spec.
    pub fn new(utilization: Utilization, latency: Nanos) -> VcpuSpec {
        VcpuSpec {
            utilization,
            latency,
            capped: false,
        }
    }

    /// Creates a capped vCPU spec.
    pub fn capped(utilization: Utilization, latency: Nanos) -> VcpuSpec {
        VcpuSpec {
            utilization,
            latency,
            capped: true,
        }
    }
}

/// A VM: a named bundle of vCPUs sharing one configuration.
///
/// The paper evaluates single-vCPU VMs (four per core); multi-vCPU VMs are
/// supported by giving each vCPU its own task. The planner places vCPUs,
/// not VMs: a plan is a function of the core count and the flat vCPU list
/// ([`HostConfig::vcpus`]), and VM boundaries only number the vCPUs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Human-readable VM name (used in reports and traces).
    pub name: String,
    /// Per-vCPU SLAs.
    pub vcpus: Vec<VcpuSpec>,
}

impl VmSpec {
    /// Creates a VM with `n` identical vCPUs.
    pub fn uniform(name: impl Into<String>, n: usize, spec: VcpuSpec) -> VmSpec {
        VmSpec {
            name: name.into(),
            vcpus: vec![spec; n],
        }
    }
}

/// A complete host configuration handed to the planner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Number of physical cores available for guest vCPUs.
    pub n_cores: usize,
    /// Admitted VMs.
    pub vms: Vec<VmSpec>,
}

impl HostConfig {
    /// Creates an empty host with `n_cores` cores.
    pub fn new(n_cores: usize) -> HostConfig {
        HostConfig {
            n_cores,
            vms: Vec::new(),
        }
    }

    /// Adds a VM and returns its index.
    pub fn add_vm(&mut self, vm: VmSpec) -> usize {
        self.vms.push(vm);
        self.vms.len() - 1
    }

    /// Flattens the configuration into `(VcpuId, VcpuSpec)` pairs in VM
    /// order; this is the id assignment used by the planner and tables.
    pub fn vcpus(&self) -> Vec<(VcpuId, VcpuSpec)> {
        let mut out = Vec::new();
        let mut id = 0u32;
        for vm in &self.vms {
            for spec in &vm.vcpus {
                out.push((VcpuId(id), *spec));
                id += 1;
            }
        }
        out
    }

    /// Total reserved utilization across all vCPUs (in cores).
    pub fn total_utilization(&self) -> f64 {
        self.vms
            .iter()
            .flat_map(|vm| vm.vcpus.iter())
            .map(|v| v.utilization.as_ratio())
            .sum()
    }

    /// The VM index owning a given vCPU id, if it exists.
    pub fn vm_of(&self, vcpu: VcpuId) -> Option<usize> {
        let mut id = 0u32;
        for (vm_idx, vm) in self.vms.iter().enumerate() {
            id += vm.vcpus.len() as u32;
            if vcpu.0 < id {
                return Some(vm_idx);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_constructors() {
        assert_eq!(Utilization::from_percent(25).ppm(), 250_000);
        assert_eq!(Utilization::from_ratio(0.5).ppm(), 500_000);
        assert_eq!(Utilization::from_percent(200), Utilization::FULL);
        assert_eq!(Utilization::from_ppm(0).ppm(), 1); // clamped up
    }

    #[test]
    fn fair_share_matches_paper_default() {
        // U = m / n: 16 cores, 64 vCPUs => 25%.
        assert_eq!(Utilization::fair_share(16, 64).ppm(), 250_000);
        // More cores than vCPUs caps at a full core.
        assert_eq!(Utilization::fair_share(8, 4), Utilization::FULL);
        assert_eq!(Utilization::fair_share(8, 0), Utilization::FULL);
    }

    #[test]
    fn budget_rounds_down_but_never_to_zero() {
        let u = Utilization::from_ppm(333_333);
        let b = u.budget_in(Nanos::from_millis(10));
        assert_eq!(b, Nanos(3_333_330));
        // Floor rounding: 25% of a non-multiple-of-4 period.
        let quarter = Utilization::from_percent(25);
        assert_eq!(quarter.budget_in(Nanos(12_837_825)), Nanos(3_209_456));
        // A sliver reservation still gets at least 1 ns.
        assert_eq!(Utilization::from_ppm(1).budget_in(Nanos(1)), Nanos(1));
    }

    #[test]
    fn host_config_id_assignment() {
        let mut host = HostConfig::new(4);
        let spec = VcpuSpec::new(Utilization::from_percent(25), Nanos::from_millis(20));
        host.add_vm(VmSpec::uniform("a", 2, spec));
        host.add_vm(VmSpec::uniform("b", 1, spec));
        let vcpus = host.vcpus();
        assert_eq!(vcpus.len(), 3);
        assert_eq!(vcpus[2].0, VcpuId(2));
        assert_eq!(host.vm_of(VcpuId(0)), Some(0));
        assert_eq!(host.vm_of(VcpuId(1)), Some(0));
        assert_eq!(host.vm_of(VcpuId(2)), Some(1));
        assert_eq!(host.vm_of(VcpuId(3)), None);
        assert!((host.total_utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn capped_flag_round_trip() {
        let u = Utilization::from_percent(25);
        let l = Nanos::from_millis(20);
        assert!(!VcpuSpec::new(u, l).capped);
        assert!(VcpuSpec::capped(u, l).capped);
    }
}
