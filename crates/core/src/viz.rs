//! Text visualization of scheduling tables (a debugging/ops aid).
//!
//! Renders a [`Table`] as a per-core ASCII Gantt strip, one character per
//! time bucket: a vCPU's symbol where it holds the whole bucket, `.` for
//! idle, `▒` where the bucket mixes owners. Used by the examples and handy
//! when eyeballing planner output (a 102 ms table fits in a terminal line).

use std::fmt::Write as _;

use rtsched::time::Nanos;

use crate::table::Table;
use crate::vcpu::VcpuId;

/// Symbol assigned to a vCPU id (cycles through `0-9a-zA-Z`).
pub fn symbol_for(vcpu: VcpuId) -> char {
    const ALPHABET: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    ALPHABET[vcpu.0 as usize % ALPHABET.len()] as char
}

/// Renders `table` as one Gantt strip per core, `width` buckets wide.
///
/// # Examples
///
/// ```
/// use rtsched::time::Nanos;
/// use tableau_core::table::{Allocation, Table};
/// use tableau_core::vcpu::VcpuId;
/// use tableau_core::viz::render_gantt;
///
/// let ms = Nanos::from_millis;
/// let table = Table::new(
///     ms(10),
///     vec![vec![
///         Allocation { start: ms(0), end: ms(5), vcpu: VcpuId(0) },
///         Allocation { start: ms(5), end: ms(8), vcpu: VcpuId(1) },
///     ]],
/// )
/// .unwrap();
/// let strip = render_gantt(&table, 10);
/// assert!(strip.contains("0000011"));
/// assert!(strip.trim_end().ends_with("..|")); // idle tail
/// ```
pub fn render_gantt(table: &Table, width: usize) -> String {
    let width = width.max(1);
    let len = table.len().as_nanos();
    let mut out = String::new();
    for core in 0..table.n_cores() {
        let _ = write!(out, "core {core:>2} |");
        for b in 0..width {
            let lo = Nanos(len * b as u64 / width as u64);
            let hi = Nanos((len * (b as u64 + 1) / width as u64).max(lo.as_nanos() + 1));
            // Sample the owner at the bucket's start, then check whether it
            // holds the entire bucket.
            let owner = table.lookup(core, lo).vcpu();
            let uniform = {
                let slot = table.lookup(core, lo);
                let slot_end = lo + (slot.until() - lo % table.len());
                slot_end >= hi
            };
            let ch = match (owner, uniform) {
                (Some(v), true) => symbol_for(v),
                (None, true) => '.',
                _ => '▒',
            };
            out.push(ch);
        }
        out.push_str("|\n");
    }
    out
}

/// Renders a legend mapping symbols to the vCPUs used in `table`.
pub fn render_legend(table: &Table) -> String {
    let mut seen: Vec<VcpuId> = (0..table.n_cores())
        .flat_map(|c| table.cpu(c).allocations().map(|a| a.vcpu))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let mut out = String::from("legend: ");
    for (i, v) in seen.iter().enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        let _ = write!(out, "{}={}", symbol_for(*v), v);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Allocation;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn table() -> Table {
        Table::new(
            ms(10),
            vec![
                vec![
                    Allocation {
                        start: ms(0),
                        end: ms(5),
                        vcpu: VcpuId(0),
                    },
                    Allocation {
                        start: ms(5),
                        end: ms(10),
                        vcpu: VcpuId(1),
                    },
                ],
                vec![],
            ],
        )
        .unwrap()
    }

    #[test]
    fn strips_show_owners_and_idle() {
        let g = render_gantt(&table(), 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("0000011111"));
        assert!(lines[1].contains(".........."));
    }

    #[test]
    fn mixed_buckets_are_marked() {
        // 3 buckets over a 10 ms table: the middle bucket spans the 5 ms
        // ownership change.
        let g = render_gantt(&table(), 3);
        let first = g.lines().next().unwrap();
        assert!(first.contains('▒'), "no mixed marker in {first}");
    }

    #[test]
    fn legend_lists_each_vcpu_once() {
        let l = render_legend(&table());
        assert_eq!(l.matches("v0").count(), 1);
        assert_eq!(l.matches("v1").count(), 1);
    }

    #[test]
    fn symbols_cycle_safely() {
        assert_eq!(symbol_for(VcpuId(0)), '0');
        assert_eq!(symbol_for(VcpuId(10)), 'a');
        assert_eq!(symbol_for(VcpuId(62)), '0'); // wraps
    }

    #[test]
    fn renders_real_planner_output() {
        use crate::planner::{plan, PlannerOptions};
        use crate::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
        let mut host = HostConfig::new(2);
        let spec = VcpuSpec::capped(Utilization::from_percent(25), ms(20));
        for i in 0..8 {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        let g = render_gantt(&p.table, 64);
        assert_eq!(g.lines().count(), 2);
        // Fully reserved table: no idle dots.
        assert!(!g.contains('.'), "unexpected idle in a full table:\n{g}");
    }
}
