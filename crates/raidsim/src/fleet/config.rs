//! Fleet specification: disk classes, virtual array specs, tenant demands.
//!
//! Validation here is the `simulate --fleet` exit path's contract: every
//! rejection names the offending field and value so a malformed spec dies
//! with a pointed message instead of a panic deep in the engine.

use crate::config::{FaultConfig, Organization, ParityPlacement};
use diskmodel::{DiskGeometry, SeekCurve};
use serde::{Deserialize, Serialize};

/// One class of physical drive in the fleet's pool: a calibrated geometry
/// and seek curve plus how many such drives exist.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiskClass {
    pub name: String,
    pub geometry: DiskGeometry,
    pub seek: SeekCurve,
    /// Physical drives of this class available to the allocation planner.
    pub count: u32,
}

/// One virtual array: an organization carved out of a single disk class.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VirtualArraySpec {
    pub name: String,
    pub organization: Organization,
    /// Name of the [`DiskClass`] this VA draws its drives from.
    pub disk_class: String,
    /// Logical data disks (`N`); physical drives consumed follow the
    /// organization (`N` for Base, `2N` for Mirror, `N + 1` for parity).
    pub data_disks: u32,
    /// NV controller cache share, MB; `None` runs the VA uncached.
    #[serde(default)]
    pub cache_mb: Option<u64>,
    /// Per-VA sparing / fault-injection plan.
    #[serde(default)]
    pub fault: Option<FaultConfig>,
}

/// One tenant workload to be placed on some virtual array.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantSpec {
    pub id: String,
    /// Sustained demand, host I/Os per second.
    pub demand_iops: f64,
    /// Capacity demand, blocks.
    pub capacity_blocks: u64,
    /// Zipf skew of the tenant's accesses across its VA's disks
    /// (0 = uniform).
    #[serde(default)]
    pub skew: f64,
    /// Fraction of the tenant's requests that are writes.
    pub write_fraction: f64,
}

/// The whole fleet: a drive pool, the virtual arrays carved from it, and
/// the tenants demanding placement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Fleet seed: shared by every VA's simulator (so warm disk pools are
    /// shareable per disk class) and mixed per-tenant for trace substreams.
    pub seed: u64,
    /// Length of every tenant's generated substream, seconds.
    pub duration_secs: f64,
    pub classes: Vec<DiskClass>,
    pub arrays: Vec<VirtualArraySpec>,
    pub tenants: Vec<TenantSpec>,
}

impl FleetConfig {
    /// Look up a disk class by name.
    pub fn class(&self, name: &str) -> Option<&DiskClass> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Physical drives a VA spec consumes: the organization's complement
    /// plus its hot-spare reservation, if any; `None` past `u32::MAX`.
    pub fn physical_disks(va: &VirtualArraySpec) -> Option<u32> {
        let spares = va
            .fault
            .as_ref()
            .filter(|f| f.spare)
            .map_or(0, |f| f.spare_count);
        va.organization.checked_disks(va.data_disks, 1, spares)
    }

    /// Validate the spec, naming the offending field in every rejection.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.duration_secs.is_finite() && self.duration_secs > 0.0) {
            return Err(format!(
                "duration_secs must be finite and > 0, got {}",
                self.duration_secs
            ));
        }
        if self.classes.is_empty() {
            return Err("classes is empty: the fleet needs at least one disk class".into());
        }
        for (i, c) in self.classes.iter().enumerate() {
            if c.name.is_empty() {
                return Err(format!("classes[{i}].name is empty"));
            }
            if self.classes[..i].iter().any(|p| p.name == c.name) {
                return Err(format!("duplicate disk class name {:?}", c.name));
            }
            if c.count == 0 {
                return Err(format!("disk class {:?}: count must be ≥ 1", c.name));
            }
            c.geometry
                .validate()
                .map_err(|e| format!("disk class {:?}: {e}", c.name))?;
        }
        if self.arrays.is_empty() {
            return Err("arrays is empty: the fleet needs at least one virtual array".into());
        }
        for (i, va) in self.arrays.iter().enumerate() {
            if va.name.is_empty() {
                return Err(format!("arrays[{i}].name is empty"));
            }
            if self.arrays[..i].iter().any(|p| p.name == va.name) {
                return Err(format!("duplicate virtual array name {:?}", va.name));
            }
            let class = self.class(&va.disk_class).ok_or_else(|| {
                format!(
                    "virtual array {:?}: unknown disk class {:?}",
                    va.name, va.disk_class
                )
            })?;
            if va.data_disks == 0 {
                return Err(format!(
                    "virtual array {:?}: data_disks must be ≥ 1",
                    va.name
                ));
            }
            if FleetConfig::physical_disks(va).is_none() {
                return Err(format!(
                    "virtual array {:?}: data_disks = {} plus fault.spare_count = {} \
                     need more than {} drives",
                    va.name,
                    va.data_disks,
                    va.fault.as_ref().map_or(0, |f| f.spare_count),
                    u32::MAX
                ));
            }
            if va.cache_mb == Some(0) {
                return Err(format!(
                    "virtual array {:?}: cache_mb must be ≥ 1 (or omitted)",
                    va.name
                ));
            }
            // Delegate the org/geometry/fault cross-checks to the per-VA
            // SimConfig the planner will build, so the fleet spec rejects
            // exactly what the engine would.
            super::alloc::va_sim_config(self, va, class)
                .validate()
                .map_err(|e| format!("virtual array {:?}: {e}", va.name))?;
        }
        // Physical commitment per class: the carved VAs (plus their spare
        // reservations) must fit the pool.
        for c in &self.classes {
            let need = self
                .arrays
                .iter()
                .filter(|va| va.disk_class == c.name)
                .try_fold(0u32, |sum, va| {
                    sum.checked_add(FleetConfig::physical_disks(va)?)
                });
            let Some(need) = need else {
                return Err(format!(
                    "disk class {:?} overcommitted: virtual arrays need more than {} drives",
                    c.name,
                    u32::MAX
                ));
            };
            if need > c.count {
                return Err(format!(
                    "disk class {:?} overcommitted: virtual arrays need {need} drives \
                     but the pool has {}",
                    c.name, c.count
                ));
            }
        }
        if self.tenants.is_empty() {
            return Err("tenants is empty: the fleet needs at least one tenant".into());
        }
        if self.tenants.len() > u16::MAX as usize {
            return Err(format!(
                "too many tenants: {} (limit {})",
                self.tenants.len(),
                u16::MAX
            ));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.id.is_empty() {
                return Err(format!("tenants[{i}].id is empty"));
            }
            if self.tenants[..i].iter().any(|p| p.id == t.id) {
                return Err(format!("duplicate tenant id {:?}", t.id));
            }
            if !(t.demand_iops.is_finite() && t.demand_iops > 0.0) {
                return Err(format!(
                    "tenant {:?}: demand_iops must be finite and > 0, got {}",
                    t.id, t.demand_iops
                ));
            }
            if t.capacity_blocks == 0 {
                return Err(format!("tenant {:?}: capacity_blocks must be ≥ 1", t.id));
            }
            if !(t.skew.is_finite() && t.skew >= 0.0) {
                return Err(format!(
                    "tenant {:?}: skew must be finite and ≥ 0, got {}",
                    t.id, t.skew
                ));
            }
            if !(0.0..=1.0).contains(&t.write_fraction) {
                return Err(format!(
                    "tenant {:?}: write_fraction must be in [0, 1], got {}",
                    t.id, t.write_fraction
                ));
            }
        }
        Ok(())
    }

    /// A small three-VA, two-class, three-tenant fleet for unit tests and
    /// smoke runs. Deterministic; runs in well under a second.
    pub fn small() -> FleetConfig {
        let mut demo = FleetConfig::demo();
        demo.arrays.truncate(3);
        demo.tenants.truncate(3);
        for t in &mut demo.tenants {
            t.demand_iops = 40.0;
        }
        demo.duration_secs = 2.0;
        demo
    }

    /// The reference fleet of the issue's acceptance scenario: 16 virtual
    /// arrays over 2 disk classes spanning 5 organizations, 6 tenants, and
    /// one VA with a mid-run disk failure + hot-spare rebuild. Everything
    /// is a pure function of the literals below — no clocks, no ambient
    /// randomness — so two builds are identical.
    pub fn demo() -> FleetConfig {
        // Class "t1": the paper's Table 1 drive. Class "fast": a higher-RPM,
        // larger drive with a quicker seek curve — heterogeneous in rotation,
        // seek, and capacity.
        let t1 = DiskClass {
            name: "t1".into(),
            geometry: DiskGeometry::default(),
            seek: SeekCurve::table1(),
            count: 80,
        };
        let fast = DiskClass {
            name: "fast".into(),
            geometry: DiskGeometry {
                rpm: 7200,
                cylinders: 1890,
                ..DiskGeometry::default()
            },
            seek: SeekCurve::calibrate(1890, 8.0, 18.0, 1.5),
            count: 80,
        };

        // 16 VAs cycling through the five organizations and both classes.
        // VA 0 carries the fault plan: disk 1 dies 2 simulated seconds in,
        // and a hot spare rebuilds it.
        let orgs: [Organization; 5] = [
            Organization::Raid5 { striping_unit: 1 },
            Organization::Mirror,
            Organization::Base,
            Organization::Raid4 { striping_unit: 1 },
            Organization::ParityStriping {
                placement: ParityPlacement::Middle,
            },
        ];
        let arrays = (0..16)
            .map(|i| {
                let organization = orgs[i % orgs.len()];
                let class = if i % 2 == 0 { "t1" } else { "fast" };
                VirtualArraySpec {
                    name: format!("va{i:02}"),
                    organization,
                    disk_class: class.into(),
                    data_disks: 4,
                    cache_mb: if i % 4 == 3 { Some(8) } else { None },
                    fault: (i == 0).then(|| FaultConfig {
                        disk_failure: Some(crate::config::DiskFailure {
                            array: 0,
                            disk: 1,
                            at_ms: 2_000,
                        }),
                        ..FaultConfig::default()
                    }),
                }
            })
            .collect();

        let tenant = |id: &str, iops: f64, cap: u64, skew: f64, wf: f64| TenantSpec {
            id: id.into(),
            demand_iops: iops,
            capacity_blocks: cap,
            skew,
            write_fraction: wf,
        };
        FleetConfig {
            seed: 0x464C_4545_5401, // "FLEET" + 1
            duration_secs: 5.0,
            classes: vec![t1, fast],
            arrays,
            tenants: vec![
                tenant("oltp-a", 90.0, 200_000, 1.2, 0.5),
                tenant("oltp-b", 70.0, 150_000, 0.8, 0.3),
                tenant("batch", 50.0, 400_000, 0.0, 0.8),
                tenant("readmost", 60.0, 120_000, 1.5, 0.05),
                tenant("spiky", 45.0, 90_000, 2.0, 0.4),
                tenant("archive", 30.0, 300_000, 0.3, 0.9),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_fleets_validate() {
        FleetConfig::demo().validate().unwrap();
        FleetConfig::small().validate().unwrap();
    }

    #[test]
    fn rejections_name_the_offending_field() {
        let base = FleetConfig::small;

        let mut f = base();
        f.duration_secs = 0.0;
        assert!(f.validate().unwrap_err().contains("duration_secs"));

        let mut f = base();
        f.tenants[1].id = f.tenants[0].id.clone();
        let e = f.validate().unwrap_err();
        assert!(e.contains("duplicate tenant id"), "{e}");

        let mut f = base();
        f.arrays[2].disk_class = "nvme".into();
        let e = f.validate().unwrap_err();
        assert!(
            e.contains("unknown disk class") && e.contains("nvme"),
            "{e}"
        );

        let mut f = base();
        f.classes[0].count = 1;
        let e = f.validate().unwrap_err();
        assert!(e.contains("overcommitted"), "{e}");

        let mut f = base();
        f.tenants[0].write_fraction = 1.5;
        let e = f.validate().unwrap_err();
        assert!(e.contains("write_fraction"), "{e}");

        let mut f = base();
        f.tenants[0].demand_iops = f64::NAN;
        assert!(f.validate().unwrap_err().contains("demand_iops"));

        let mut f = base();
        f.arrays[0].cache_mb = Some(0);
        assert!(f.validate().unwrap_err().contains("cache_mb"));

        // Cross-checks delegated to the per-VA SimConfig: a zero striping
        // unit is rejected at the fleet boundary with the VA named.
        let mut f = base();
        f.arrays[0].organization = Organization::Raid5 { striping_unit: 0 };
        let e = f.validate().unwrap_err();
        assert!(e.contains("va00") && e.contains("striping"), "{e}");
    }

    /// Disk counts past `u32::MAX` are refused with the field named, not
    /// wrapped: a Mirror VA of 2^31 data disks, and spares that overflow
    /// the VA's drive count on their own or summed over the class.
    #[test]
    fn disk_counts_past_u32_are_rejected_by_field() {
        let mirror = |f: &mut FleetConfig| {
            f.arrays[1].organization = Organization::Mirror;
            f.arrays[1].fault = Some(FaultConfig::default());
        };
        let mut f = FleetConfig::small();
        mirror(&mut f);
        f.arrays[1].data_disks = 1 << 31;
        let e = f.validate().unwrap_err();
        assert!(
            e.contains("va01") && e.contains("data_disks = 2147483648"),
            "{e}"
        );

        let mut f = FleetConfig::small();
        mirror(&mut f);
        f.arrays[1].fault.as_mut().unwrap().spare_count = u32::MAX;
        let e = f.validate().unwrap_err();
        assert!(e.contains("va01") && e.contains("fault.spare_count"), "{e}");

        // Each VA fits, but the class total does not.
        let mut f = FleetConfig::small();
        f.classes[0].count = u32::MAX;
        for va in f.arrays.iter_mut().filter(|va| va.disk_class == "t1") {
            va.fault = Some(FaultConfig {
                spare_count: u32::MAX / 2,
                ..FaultConfig::default()
            });
        }
        let e = f.validate().unwrap_err();
        assert!(
            e.contains("\"t1\" overcommitted") && e.contains("more than"),
            "{e}"
        );
    }

    #[test]
    fn demo_is_the_acceptance_scenario() {
        let f = FleetConfig::demo();
        assert_eq!(f.arrays.len(), 16);
        let orgs: std::collections::BTreeSet<&str> =
            f.arrays.iter().map(|a| a.organization.label()).collect();
        assert!(orgs.len() >= 3, "needs ≥ 3 organizations, got {orgs:?}");
        assert_eq!(f.classes.len(), 2);
        assert!(f.tenants.len() >= 4);
        assert!(
            f.arrays
                .iter()
                .any(|a| a.fault.as_ref().is_some_and(|fa| fa.disk_failure.is_some())),
            "demo must inject a mid-run disk failure"
        );
    }
}
