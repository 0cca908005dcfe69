//! Text format for fleet specifications (`simulate --fleet <file>`).
//!
//! A deliberately small line-oriented format — the workspace carries no
//! general-purpose config-file dependency, and the CLI contract is that a
//! malformed spec dies with the offending **line and field**, never a
//! panic:
//!
//! ```text
//! seed = 0x464C45455401          # optional (default shown)
//! duration_secs = 5              # optional (default 5)
//!
//! [class t1]                     # a physical drive class
//! count = 80                     # required: drives in the pool
//! rpm = 5400                     # optional geometry overrides
//! cylinders = 1260
//! avg_seek_ms = 11.2             # optional: all three => calibrated curve,
//! max_seek_ms = 28.0             #           none => the Table 1 curve
//! single_cyl_ms = 2.0
//!
//! [array va00]                   # a virtual array
//! class = t1                     # required
//! organization = raid5:1         # required: base | mirror | raid5:SU |
//!                                #   raid4:SU | parstrip[:middle|:end|:rot:BAND]
//! data_disks = 4                 # required
//! cache_mb = 8                   # optional: NV cache share
//! fail_disk_at_ms = 1:2000       # optional: DISK:MS mid-run failure,
//!                                #           hot-spare rebuild
//!
//! [tenant oltp-a]                # a tenant demand
//! demand_iops = 90               # required
//! capacity_blocks = 200000       # required
//! write_fraction = 0.5           # required
//! skew = 1.2                     # optional Zipf skew (default 0)
//! ```
//!
//! `#` starts a comment; blank lines are ignored. Section order is free;
//! the planner places tenants in declaration order.

use super::config::{DiskClass, FleetConfig, TenantSpec, VirtualArraySpec};
use crate::config::{CacheConfig, DiskFailure, FaultConfig, Organization, ParityPlacement};
use diskmodel::{DiskGeometry, SeekCurve};

/// Default seed of a parsed spec ("FLEET" + 1, matching the demo fleet).
pub const DEFAULT_SPEC_SEED: u64 = 0x464C_4545_5401;

enum Section {
    Top,
    Class(ClassDraft),
    Array(ArrayDraft),
    Tenant(TenantDraft),
}

struct ClassDraft {
    line: usize,
    name: String,
    count: Option<u32>,
    rpm: Option<u32>,
    cylinders: Option<u32>,
    avg_seek_ms: Option<f64>,
    max_seek_ms: Option<f64>,
    single_cyl_ms: Option<f64>,
}

struct ArrayDraft {
    line: usize,
    name: String,
    class: Option<String>,
    organization: Option<Organization>,
    data_disks: Option<u32>,
    cache_mb: Option<u64>,
    fail_disk_at_ms: Option<(u32, u64)>,
}

struct TenantDraft {
    line: usize,
    id: String,
    demand_iops: Option<f64>,
    capacity_blocks: Option<u64>,
    skew: Option<f64>,
    write_fraction: Option<f64>,
}

fn err(line: usize, msg: &str) -> String {
    format!("fleet spec line {line}: {msg}")
}

fn parse_u64(line: usize, key: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| err(line, &format!("bad value for {key}: {v:?}")))
}

fn parse_u32(line: usize, key: &str, v: &str) -> Result<u32, String> {
    v.parse()
        .map_err(|_| err(line, &format!("bad value for {key}: {v:?}")))
}

fn parse_f64(line: usize, key: &str, v: &str) -> Result<f64, String> {
    v.parse()
        .map_err(|_| err(line, &format!("bad value for {key}: {v:?}")))
}

/// `base | mirror | raid5:SU | raid4:SU | parstrip[:middle|:end|:rot:BAND]`
fn parse_org(line: usize, v: &str) -> Result<Organization, String> {
    let (head, rest) = match v.split_once(':') {
        Some((h, r)) => (h, Some(r)),
        None => (v, None),
    };
    let su = |line| -> Result<u32, String> {
        let r = rest.ok_or_else(|| err(line, "striped organizations want a unit: raid5:SU"))?;
        parse_u32(line, "striping unit", r)
    };
    match head {
        "base" => Ok(Organization::Base),
        "mirror" => Ok(Organization::Mirror),
        "raid5" => Ok(Organization::Raid5 {
            striping_unit: su(line)?,
        }),
        "raid4" => Ok(Organization::Raid4 {
            striping_unit: su(line)?,
        }),
        "parstrip" => {
            let placement = match rest {
                None | Some("middle") => ParityPlacement::Middle,
                Some("end") => ParityPlacement::End,
                Some(r) => match r.strip_prefix("rot:") {
                    Some(band) => ParityPlacement::MiddleRotated {
                        band_blocks: parse_u32(line, "rotation band", band)?,
                    },
                    None => return Err(err(line, &format!("unknown parity placement {r:?}"))),
                },
            };
            Ok(Organization::ParityStriping { placement })
        }
        other => Err(err(line, &format!("unknown organization {other:?}"))),
    }
}

impl ClassDraft {
    fn finish(self) -> Result<DiskClass, String> {
        let count = self
            .count
            .ok_or_else(|| err(self.line, &format!("[class {}] missing count", self.name)))?;
        let mut geometry = DiskGeometry::default();
        if let Some(rpm) = self.rpm {
            geometry.rpm = rpm;
        }
        if let Some(cyl) = self.cylinders {
            geometry.cylinders = cyl;
        }
        let seeks = [self.avg_seek_ms, self.max_seek_ms, self.single_cyl_ms];
        let seek = match seeks {
            [None, None, None] => SeekCurve::table1(),
            [Some(avg), Some(max), Some(single)] => {
                SeekCurve::calibrate(geometry.cylinders, avg, max, single)
            }
            _ => {
                return Err(err(
                    self.line,
                    &format!(
                        "[class {}] wants all three of avg_seek_ms/max_seek_ms/single_cyl_ms \
                         or none",
                        self.name
                    ),
                ))
            }
        };
        Ok(DiskClass {
            name: self.name,
            geometry,
            seek,
            count,
        })
    }
}

impl ArrayDraft {
    fn finish(self) -> Result<VirtualArraySpec, String> {
        let miss = |f: &str| err(self.line, &format!("[array {}] missing {f}", self.name));
        Ok(VirtualArraySpec {
            organization: self.organization.ok_or_else(|| miss("organization"))?,
            disk_class: self.class.ok_or_else(|| miss("class"))?,
            data_disks: self.data_disks.ok_or_else(|| miss("data_disks"))?,
            cache_mb: self.cache_mb,
            fault: self.fail_disk_at_ms.map(|(disk, at_ms)| FaultConfig {
                disk_failure: Some(DiskFailure {
                    array: 0,
                    disk,
                    at_ms,
                }),
                ..FaultConfig::default()
            }),
            name: self.name,
        })
    }
}

impl TenantDraft {
    fn finish(self) -> Result<TenantSpec, String> {
        let miss = |f: &str| err(self.line, &format!("[tenant {}] missing {f}", self.id));
        Ok(TenantSpec {
            demand_iops: self.demand_iops.ok_or_else(|| miss("demand_iops"))?,
            capacity_blocks: self
                .capacity_blocks
                .ok_or_else(|| miss("capacity_blocks"))?,
            skew: self.skew.unwrap_or(0.0),
            write_fraction: self.write_fraction.ok_or_else(|| miss("write_fraction"))?,
            id: self.id,
        })
    }
}

impl FleetConfig {
    /// Parse the text format above. Returns the *unvalidated* config — run
    /// [`FleetConfig::validate`] (or [`super::allocate`]) next; both layers
    /// name the offending field.
    pub fn parse_spec(text: &str) -> Result<FleetConfig, String> {
        let mut fleet = FleetConfig {
            seed: DEFAULT_SPEC_SEED,
            duration_secs: 5.0,
            classes: Vec::new(),
            arrays: Vec::new(),
            tenants: Vec::new(),
        };
        let mut section = Section::Top;

        let close = |s: &mut Section, fleet: &mut FleetConfig| -> Result<(), String> {
            match std::mem::replace(s, Section::Top) {
                Section::Top => {}
                Section::Class(c) => fleet.classes.push(c.finish()?),
                Section::Array(a) => fleet.arrays.push(a.finish()?),
                Section::Tenant(t) => fleet.tenants.push(t.finish()?),
            }
            Ok(())
        };

        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| err(n, "unterminated section header"))?
                    .trim();
                let (kind, name) = header
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err(n, "section header wants a name: [class t1]"))?;
                let name = name.trim().to_string();
                close(&mut section, &mut fleet)?;
                section = match kind {
                    "class" => Section::Class(ClassDraft {
                        line: n,
                        name,
                        count: None,
                        rpm: None,
                        cylinders: None,
                        avg_seek_ms: None,
                        max_seek_ms: None,
                        single_cyl_ms: None,
                    }),
                    "array" => Section::Array(ArrayDraft {
                        line: n,
                        name,
                        class: None,
                        organization: None,
                        data_disks: None,
                        cache_mb: None,
                        fail_disk_at_ms: None,
                    }),
                    "tenant" => Section::Tenant(TenantDraft {
                        line: n,
                        id: name,
                        demand_iops: None,
                        capacity_blocks: None,
                        skew: None,
                        write_fraction: None,
                    }),
                    other => return Err(err(n, &format!("unknown section kind {other:?}"))),
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(n, &format!("expected key = value, got {line:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            match &mut section {
                Section::Top => match key {
                    "seed" => fleet.seed = parse_u64(n, key, value)?,
                    "duration_secs" => fleet.duration_secs = parse_f64(n, key, value)?,
                    other => return Err(err(n, &format!("unknown top-level key {other:?}"))),
                },
                Section::Class(c) => match key {
                    "count" => c.count = Some(parse_u32(n, key, value)?),
                    "rpm" => c.rpm = Some(parse_u32(n, key, value)?),
                    "cylinders" => c.cylinders = Some(parse_u32(n, key, value)?),
                    "avg_seek_ms" => c.avg_seek_ms = Some(parse_f64(n, key, value)?),
                    "max_seek_ms" => c.max_seek_ms = Some(parse_f64(n, key, value)?),
                    "single_cyl_ms" => c.single_cyl_ms = Some(parse_f64(n, key, value)?),
                    other => {
                        return Err(err(
                            n,
                            &format!("unknown key {other:?} in [class {}]", c.name),
                        ))
                    }
                },
                Section::Array(a) => match key {
                    "class" => a.class = Some(value.to_string()),
                    "organization" => a.organization = Some(parse_org(n, value)?),
                    "data_disks" => a.data_disks = Some(parse_u32(n, key, value)?),
                    "cache_mb" => {
                        let size_mb = parse_u64(n, key, value)?;
                        // Classes keep the default block size, so the
                        // cache's capacity is checked here, on its line.
                        let cache = CacheConfig {
                            size_mb,
                            ..CacheConfig::default()
                        };
                        cache
                            .blocks(DiskGeometry::default().block_bytes)
                            .map_err(|e| err(n, &format!("[array {}] {e}", a.name)))?;
                        a.cache_mb = Some(size_mb);
                    }
                    "fail_disk_at_ms" => {
                        let (disk, at) = value
                            .split_once(':')
                            .ok_or_else(|| err(n, "fail_disk_at_ms wants DISK:MS, e.g. 1:2000"))?;
                        a.fail_disk_at_ms = Some((
                            parse_u32(n, "fail_disk_at_ms disk", disk)?,
                            parse_u64(n, "fail_disk_at_ms time", at)?,
                        ));
                    }
                    other => {
                        return Err(err(
                            n,
                            &format!("unknown key {other:?} in [array {}]", a.name),
                        ))
                    }
                },
                Section::Tenant(t) => match key {
                    "demand_iops" => t.demand_iops = Some(parse_f64(n, key, value)?),
                    "capacity_blocks" => t.capacity_blocks = Some(parse_u64(n, key, value)?),
                    "skew" => t.skew = Some(parse_f64(n, key, value)?),
                    "write_fraction" => t.write_fraction = Some(parse_f64(n, key, value)?),
                    other => {
                        return Err(err(
                            n,
                            &format!("unknown key {other:?} in [tenant {}]", t.id),
                        ))
                    }
                },
            }
        }
        close(&mut section, &mut fleet)?;
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        seed = 0x1234
        duration_secs = 2

        [class t1]
        count = 40

        [class fast]            # calibrated curve
        count = 20
        rpm = 7200
        cylinders = 1890
        avg_seek_ms = 8.0
        max_seek_ms = 18.0
        single_cyl_ms = 1.5

        [array va0]
        class = t1
        organization = raid5:1
        data_disks = 4
        fail_disk_at_ms = 1:1000

        [array va1]
        class = fast
        organization = parstrip:end
        data_disks = 4
        cache_mb = 8

        [tenant a]
        demand_iops = 30
        capacity_blocks = 50000
        write_fraction = 0.4
        skew = 1.0

        [tenant b]
        demand_iops = 20
        capacity_blocks = 40000
        write_fraction = 0.1
    "#;

    #[test]
    fn good_spec_parses_validates_and_runs() {
        let fleet = FleetConfig::parse_spec(GOOD).unwrap();
        assert_eq!(fleet.seed, 0x1234);
        assert_eq!(fleet.classes.len(), 2);
        assert_eq!(fleet.arrays.len(), 2);
        assert_eq!(fleet.tenants.len(), 2);
        assert!(fleet.arrays[0].fault.is_some());
        fleet.validate().unwrap();
        let (report, _) = super::super::run_fleet(&fleet, 2).unwrap();
        assert_eq!(report.tenants.len(), 2);
    }

    #[test]
    fn errors_carry_line_and_field() {
        let e = FleetConfig::parse_spec("bogus = 1").unwrap_err();
        assert!(e.contains("line 1") && e.contains("bogus"), "{e}");

        let e = FleetConfig::parse_spec("[class t1]\nrpmx = 1").unwrap_err();
        assert!(e.contains("line 2") && e.contains("rpmx"), "{e}");

        let e = FleetConfig::parse_spec("[class t1]\nrpm = 5400").unwrap_err();
        assert!(e.contains("missing count"), "{e}");

        let e = FleetConfig::parse_spec("[array a]\nclass = t1\ndata_disks = 4").unwrap_err();
        assert!(e.contains("missing organization"), "{e}");

        let e = FleetConfig::parse_spec("[array a]\norganization = raid9:1").unwrap_err();
        assert!(e.contains("unknown organization"), "{e}");

        let e = FleetConfig::parse_spec("[tenant t]\ndemand_iops = nope").unwrap_err();
        assert!(e.contains("demand_iops") && e.contains("nope"), "{e}");

        let e = FleetConfig::parse_spec("[class t1]\ncount = 4\navg_seek_ms = 8").unwrap_err();
        assert!(e.contains("all three"), "{e}");

        let e = FleetConfig::parse_spec("[widget w]\nx = 1").unwrap_err();
        assert!(e.contains("unknown section kind"), "{e}");

        // An NV cache too large for the cache's u32 node ids is refused on
        // its own line, not by the allocator at run time.
        let e =
            FleetConfig::parse_spec("[array a]\nclass = t1\ncache_mb = 99999999999").unwrap_err();
        assert!(e.contains("line 3") && e.contains("99999999999 MB"), "{e}");
    }

    #[test]
    fn comments_blank_lines_and_hex_are_tolerated() {
        let fleet =
            FleetConfig::parse_spec("# header\n\nseed = 0xABC # trailing\nduration_secs = 1.5\n")
                .unwrap();
        assert_eq!(fleet.seed, 0xABC);
        assert_eq!(fleet.duration_secs, 1.5);
    }
}
