//! Allocation planner: tenant demands → virtual array placements.
//!
//! A single-pass best-fit on **bandwidth and capacity**, after Thomasian &
//! Xu's heterogeneous disk array allocation: tenants are considered in
//! declaration order; each is placed on the candidate VA whose residual
//! bandwidth fits tightest (ties: tightest capacity, then lowest VA index).
//! Single-pass keeps the plan a trivially deterministic function of the
//! spec — no backtracking, no randomized restarts — which the fleet's
//! byte-identical serial/parallel contract depends on.
//!
//! The bandwidth model is deliberately first-order: a drive sustains
//! `1 / (third-stroke seek + half rotation + one-block transfer)` random
//! accesses per second, a VA sustains that times its physical drive count,
//! and a tenant *costs* its IOPS weighted by the organization's access
//! amplification (mirrored writes cost 2 physical accesses, parity
//! read-modify-writes cost 4). The simulator then measures what the plan
//! actually delivers — the planner only has to be sane, monotone, and
//! deterministic.

use super::config::{DiskClass, FleetConfig, TenantSpec, VirtualArraySpec};
use crate::config::{CacheConfig, Organization, SimConfig};

/// One planned virtual array: its spec resolved against the disk pool,
/// pinned to a contiguous span of fleet-global logical disks.
#[derive(Clone, Debug)]
pub struct VaPlan {
    pub name: String,
    pub organization: Organization,
    pub disk_class: String,
    /// First fleet-global logical disk of this VA's span.
    pub base_disk: u32,
    /// Span width = logical data disks.
    pub data_disks: u32,
    /// Ready-to-run simulator configuration (shared fleet seed, class
    /// geometry and seek, per-VA cache and fault plan).
    pub config: SimConfig,
    /// Tenant indices placed here, in placement order.
    pub tenants: Vec<usize>,
}

/// The resolved fleet: placements plus the logical-disk geometry the trace
/// router needs.
#[derive(Clone, Debug)]
pub struct FleetPlan {
    pub vas: Vec<VaPlan>,
    /// `placement[t]` is the VA index hosting tenant `t`.
    pub placement: Vec<usize>,
    /// Sum of the VA spans — the master trace's disk count.
    pub total_logical_disks: u32,
    /// Largest `blocks_per_disk` across the classes in use — the master
    /// trace's address cap.
    pub max_blocks_per_disk: u64,
}

/// Nominal random-access rate of one drive of `class`, accesses/second:
/// third-stroke seek + half a rotation + a one-block transfer.
pub fn disk_access_rate(class: &DiskClass) -> f64 {
    let seek_ns = class.seek.seek_ms(class.geometry.cylinders.max(3) / 3) * 1e6;
    let service_ns = seek_ns
        + class.geometry.rotation_ns() as f64 / 2.0
        + class.geometry.block_transfer_ns() as f64;
    1e9 / service_ns
}

/// A tenant's bandwidth cost on a VA of organization `org`, physical
/// accesses per second: reads cost one, writes cost the organization's
/// amplification.
fn tenant_load(t: &TenantSpec, org: Organization) -> f64 {
    t.demand_iops * ((1.0 - t.write_fraction) + t.write_fraction * org.write_amplification())
}

/// Build the per-VA simulator configuration. Shared with
/// [`FleetConfig::validate`] so the spec rejects exactly what the engine
/// would.
pub(super) fn va_sim_config(
    fleet: &FleetConfig,
    va: &VirtualArraySpec,
    class: &DiskClass,
) -> SimConfig {
    SimConfig {
        organization: va.organization,
        data_disks_per_array: va.data_disks,
        geometry: class.geometry.clone(),
        seek: class.seek,
        cache: va.cache_mb.map(|mb| CacheConfig {
            size_mb: mb,
            ..CacheConfig::default()
        }),
        // One seed for the whole fleet: disk models become a pure function
        // of (class, index), so VAs of the same class share a warm pool.
        seed: fleet.seed,
        fault: va.fault,
        ..SimConfig::default()
    }
}

/// Resolve the fleet spec into a plan: validate, pin VA spans, place every
/// tenant by best fit. Errors name the offending tenant and the exhausted
/// resource.
pub fn allocate(fleet: &FleetConfig) -> Result<FleetPlan, String> {
    fleet.validate()?;

    let mut vas = Vec::with_capacity(fleet.arrays.len());
    let mut base = 0u32;
    let mut max_bpd = 0u64;
    // Residual capability per VA: physical accesses/sec and blocks.
    let mut resid_bw = Vec::with_capacity(fleet.arrays.len());
    let mut resid_cap = Vec::with_capacity(fleet.arrays.len());
    for va in &fleet.arrays {
        #[expect(
            clippy::expect_used,
            reason = "validate() resolved every class name above"
        )]
        let class = fleet.class(&va.disk_class).expect("validated class");
        let bpd = class.geometry.blocks_per_disk();
        max_bpd = max_bpd.max(bpd);
        resid_bw
            .push(disk_access_rate(class) * va.organization.disks_per_array(va.data_disks) as f64);
        resid_cap.push(va.data_disks as u64 * bpd);
        vas.push(VaPlan {
            name: va.name.clone(),
            organization: va.organization,
            disk_class: va.disk_class.clone(),
            base_disk: base,
            data_disks: va.data_disks,
            config: va_sim_config(fleet, va, class),
            tenants: Vec::new(),
        });
        base += va.data_disks;
    }

    let mut placement = Vec::with_capacity(fleet.tenants.len());
    for (t_idx, t) in fleet.tenants.iter().enumerate() {
        // Best fit: among VAs with room on both axes, the tightest
        // bandwidth fit; ties fall to tightest capacity, then lowest index.
        let mut best: Option<(usize, f64, u64)> = None;
        let mut any_capacity = false;
        for (v, va) in vas.iter().enumerate() {
            if resid_cap[v] < t.capacity_blocks {
                continue;
            }
            any_capacity = true;
            let load = tenant_load(t, va.organization);
            if resid_bw[v] < load {
                continue;
            }
            let slack_bw = resid_bw[v] - load;
            let slack_cap = resid_cap[v] - t.capacity_blocks;
            let tighter = match best {
                None => true,
                Some((_, bw, cap)) => slack_bw < bw || (slack_bw == bw && slack_cap < cap),
            };
            if tighter {
                best = Some((v, slack_bw, slack_cap));
            }
        }
        let Some((v, ..)) = best else {
            let axis = if any_capacity {
                format!(
                    "demand_iops {} exceeds every candidate's residual bandwidth",
                    t.demand_iops
                )
            } else {
                format!(
                    "capacity_blocks {} exceeds every virtual array's residual capacity",
                    t.capacity_blocks
                )
            };
            return Err(format!("tenant {:?}: {axis}", t.id));
        };
        resid_bw[v] -= tenant_load(t, vas[v].organization);
        resid_cap[v] -= t.capacity_blocks;
        vas[v].tenants.push(t_idx);
        placement.push(v);
    }

    Ok(FleetPlan {
        vas,
        placement,
        total_logical_disks: base,
        max_blocks_per_disk: max_bpd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_deterministic_and_covers_every_tenant() {
        let fleet = FleetConfig::demo();
        let a = allocate(&fleet).unwrap();
        let b = allocate(&fleet).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.placement.len(), fleet.tenants.len());
        // Spans are contiguous and disjoint in declaration order.
        let mut expect = 0;
        for va in &a.vas {
            assert_eq!(va.base_disk, expect);
            expect += va.data_disks;
        }
        assert_eq!(a.total_logical_disks, expect);
        // Every placed tenant is recorded on its VA.
        for (t, &v) in a.placement.iter().enumerate() {
            assert!(a.vas[v].tenants.contains(&t));
        }
    }

    #[test]
    fn best_fit_prefers_the_tighter_array() {
        // Two Base VAs on the same class, one half the size: a small tenant
        // must land on the smaller (tighter bandwidth) one.
        let mut fleet = FleetConfig::small();
        fleet.arrays.truncate(2);
        for va in &mut fleet.arrays {
            va.organization = Organization::Base;
            va.disk_class = "t1".into();
            va.fault = None;
            va.cache_mb = None;
        }
        fleet.arrays[0].data_disks = 8;
        fleet.arrays[1].data_disks = 4;
        fleet.tenants.truncate(1);
        fleet.tenants[0].demand_iops = 20.0;
        fleet.tenants[0].capacity_blocks = 10_000;
        let plan = allocate(&fleet).unwrap();
        assert_eq!(
            plan.placement,
            vec![1],
            "small tenant belongs on the tight VA"
        );
    }

    #[test]
    fn exhaustion_errors_name_the_tenant_and_axis() {
        let mut fleet = FleetConfig::small();
        fleet.tenants[0].capacity_blocks = u64::MAX / 2;
        let e = allocate(&fleet).unwrap_err();
        assert!(e.contains("capacity_blocks"), "{e}");
        assert!(e.contains(&fleet.tenants[0].id), "{e}");

        let mut fleet = FleetConfig::small();
        fleet.tenants[0].demand_iops = 1e9;
        let e = allocate(&fleet).unwrap_err();
        assert!(e.contains("demand_iops"), "{e}");
    }

    #[test]
    fn access_rate_orders_disk_classes_sanely() {
        let fleet = FleetConfig::demo();
        let t1 = disk_access_rate(fleet.class("t1").unwrap());
        let fast = disk_access_rate(fleet.class("fast").unwrap());
        assert!(t1 > 10.0 && t1 < 500.0, "t1 rate implausible: {t1}");
        assert!(fast > t1, "the faster class must out-rate Table 1 drives");
    }
}
