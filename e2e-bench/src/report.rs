//! Round records, counter deltas, and the metrics printed from them.

use apio_core::epoch::async_epoch_time;
use asyncvol::AsyncVolStats;

use crate::rig::{Call, Cfg, DevCounts, Probe, Rig};

/// The program's public counters at one instant.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub vol: AsyncVolStats,
    pub data: DevCounts,
    pub wal: DevCounts,
    pub meta_locks: u64,
    pub verified: u64,
    pub allocated: u64,
}

impl Counters {
    pub fn take(rig: &Rig) -> Counters {
        let c = rig.container();
        Counters {
            vol: rig.vol_stats(),
            data: rig.data.counts(),
            wal: rig.wal.as_ref().map(|d| d.counts()).unwrap_or_default(),
            meta_locks: c.meta_lock_acquisitions(),
            verified: c.integrity_stats().verified_extents,
            allocated: c.allocated_bytes(),
        }
    }
}

/// What one traced configuration run measured, layer by layer.
#[derive(Clone, Default)]
pub struct Layer {
    calls_us: [Vec<f64>; Call::COUNT],
    attempted: u64,
    bytes_written: u64,
    bytes_read: u64,
    snapshot_s: f64,
    bg_write_s: f64,
    prefetch_hits: u64,
    retries: u64,
    data: DevCounts,
    wal: DevCounts,
    meta_locks: u64,
    verified: u64,
    allocated: u64,
}

impl Layer {
    pub fn new(p: &Probe, before: Counters, after: Counters) -> Layer {
        Layer {
            calls_us: p.calls_us.clone(),
            attempted: p.attempted,
            bytes_written: p.bytes_written,
            bytes_read: p.bytes_read,
            snapshot_s: after.vol.snapshot_secs - before.vol.snapshot_secs,
            bg_write_s: after.vol.write_io_secs - before.vol.write_io_secs,
            prefetch_hits: after.vol.prefetch_hits - before.vol.prefetch_hits,
            retries: after.vol.retries - before.vol.retries,
            data: after.data.since(before.data),
            wal: after.wal.since(before.wal),
            meta_locks: after.meta_locks - before.meta_locks,
            verified: after.verified - before.verified,
            allocated: after.allocated - before.allocated,
        }
    }

    fn merge(&mut self, o: &Layer) {
        for (mine, theirs) in self.calls_us.iter_mut().zip(&o.calls_us) {
            mine.extend_from_slice(theirs);
        }
        self.attempted += o.attempted;
        self.bytes_written += o.bytes_written;
        self.bytes_read += o.bytes_read;
        self.snapshot_s += o.snapshot_s;
        self.bg_write_s += o.bg_write_s;
        self.prefetch_hits += o.prefetch_hits;
        self.retries += o.retries;
        self.data.add(o.data);
        self.wal.add(o.wal);
        self.meta_locks += o.meta_locks;
        self.verified += o.verified;
        self.allocated += o.allocated;
    }

    fn calls(&self, kind: Call) -> &[f64] {
        &self.calls_us[kind as usize]
    }

    fn call_s(&self, kind: Call) -> f64 {
        self.calls(kind).iter().sum::<f64>() / 1e6
    }
}

/// One configuration's run within a round.
#[derive(Clone, Default)]
pub struct ConfigRun {
    pub app_s: f64,
    pub io_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run stopped or failed its checks.
    pub error: Option<String>,
    /// The run's outputs failed a check (as opposed to an operation
    /// failing).
    pub incorrect: bool,
    pub layer: Option<Layer>,
}

/// One round: set-up plus the four configuration runs.
pub struct Round {
    pub traced: bool,
    /// Epochs per configuration run and the compute sleep of each.
    pub epochs: u64,
    pub compute_s: f64,
    pub setup_s: f64,
    pub configs: [ConfigRun; 4],
}

pub struct Summary {
    pub json: String,
    /// Every check passed and no operation failed.
    pub ok: bool,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Print the per-configuration operation counts and a readable table,
/// and build the final JSON line.
pub fn summarize(workload: &str, rounds: &[Round], traced: bool) -> Summary {
    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    for cfg in Cfg::ALL {
        let runs = rounds.iter().map(|r| &r.configs[cfg.index()]);
        let (a, f): (u64, u64) = runs
            .clone()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        println!("ops {workload} {} attempted={a} failed={f}", cfg.name());
        attempted += a;
        failed += f;
        for run in runs {
            if let Some(e) = &run.error {
                eprintln!("error: {workload} {e}");
            }
            correct &= !run.incorrect;
        }
    }
    let metrics = if traced {
        per_layer(rounds)
    } else {
        end_to_end(rounds)
    };
    eprintln!("{workload}: {} rounds", rounds.len());
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<44} {value:>14.6} {unit}");
    }
    Summary {
        json: format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
            attempted.max(1),
            metrics.json()
        ),
        ok: correct && failed == 0,
    }
}

fn untraced(rounds: &[Round]) -> impl Iterator<Item = &Round> {
    rounds.iter().filter(|r| !r.traced)
}

fn end_to_end(rounds: &[Round]) -> Metrics {
    let mut m = Metrics(Vec::new());
    m.push(
        "setup_s",
        median(untraced(rounds).map(|r| r.setup_s).collect()),
        "s",
    );
    for cfg in Cfg::ALL {
        let app = untraced(rounds)
            .map(|r| r.configs[cfg.index()].app_s)
            .collect();
        m.push(format!("app_s.{}", cfg.name()), median(app), "s");
    }
    for cfg in Cfg::ALL {
        let io = untraced(rounds)
            .map(|r| r.configs[cfg.index()].io_s)
            .collect();
        m.push(format!("io_s.{}", cfg.name()), median(io), "s");
    }
    m
}

const ASYNC_CFGS: [Cfg; 3] = [Cfg::Async, Cfg::Ring, Cfg::Staged];

fn per_layer(rounds: &[Round]) -> Metrics {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let n = traced.len().max(1) as f64;
    // Every traced run of each configuration, merged.
    let layers: Vec<Layer> = Cfg::ALL
        .iter()
        .map(|cfg| {
            let mut all = Layer::default();
            for r in &traced {
                if let Some(l) = &r.configs[cfg.index()].layer {
                    all.merge(l);
                }
            }
            all
        })
        .collect();
    let layer = |cfg: Cfg| &layers[cfg.index()];
    let mut total = Layer::default();
    for l in &layers {
        total.merge(l);
    }

    let mut m = Metrics(Vec::new());
    for (call, what) in [(Call::Write, "write_call_us"), (Call::Read, "read_call_us")] {
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            for cfg in Cfg::ALL {
                let v = percentile(layer(cfg).calls(call), q);
                m.push(format!("vol.{what}.{tag}.{}", cfg.name()), v, "us");
            }
        }
    }
    m.push(
        "vol.create_us.p50",
        percentile(total.calls(Call::Create), 0.5),
        "us",
    );
    for cfg in Cfg::ALL {
        m.push(
            format!("vol.wait_s.{}", cfg.name()),
            layer(cfg).call_s(Call::Wait) / n,
            "s",
        );
    }
    for cfg in Cfg::ALL {
        m.push(
            format!("vol.flush_s.{}", cfg.name()),
            layer(cfg).call_s(Call::Flush) / n,
            "s",
        );
    }
    for cfg in ASYNC_CFGS {
        m.push(
            format!("asyncvol.snapshot_s.{}", cfg.name()),
            layer(cfg).snapshot_s / n,
            "s",
        );
    }
    for cfg in ASYNC_CFGS {
        m.push(
            format!("asyncvol.bg_write_s.{}", cfg.name()),
            layer(cfg).bg_write_s / n,
            "s",
        );
    }
    let (hits, reads) = ASYNC_CFGS.iter().fold((0, 0), |(h, r), &cfg| {
        (
            h + layer(cfg).prefetch_hits,
            r + layer(cfg).calls(Call::Read).len(),
        )
    });
    m.push(
        "asyncvol.prefetch_hit_ratio",
        ratio(hits as f64, reads as f64),
        "ratio",
    );
    m.push("asyncvol.retries", total.retries as f64, "count");
    for cfg in Cfg::ALL {
        let l = layer(cfg);
        let name = cfg.name();
        m.push(
            format!("storage.write_calls.{name}"),
            l.data.write_calls as f64 / n,
            "count",
        );
        m.push(
            format!("storage.segs_per_call.{name}"),
            ratio(l.data.write_segs as f64, l.data.write_calls as f64),
            "ratio",
        );
        m.push(
            format!("storage.write_bytes_per_app_byte.{name}"),
            ratio(l.data.write_bytes as f64, l.bytes_written as f64),
            "ratio",
        );
        m.push(
            format!("storage.read_bytes_per_app_byte.{name}"),
            ratio(
                l.data.read_bytes as f64,
                (l.bytes_written + l.bytes_read) as f64,
            ),
            "ratio",
        );
        m.push(
            format!("storage.busy_s.{name}"),
            l.data.busy_ns as f64 / 1e9 / n,
            "s",
        );
    }
    let staged = layer(Cfg::Staged);
    m.push(
        "wal.bytes_per_app_byte",
        ratio(staged.wal.write_bytes as f64, staged.bytes_written as f64),
        "ratio",
    );
    m.push("wal.busy_s", staged.wal.busy_ns as f64 / 1e9 / n, "s");
    for cfg in Cfg::ALL {
        let l = layer(cfg);
        m.push(
            format!("meta.locks_per_op.{}", cfg.name()),
            ratio(l.meta_locks as f64, l.attempted as f64),
            "ratio",
        );
    }
    m.push(
        "integrity.extents_verified_per_read",
        ratio(total.verified as f64, total.calls(Call::Read).len() as f64),
        "ratio",
    );
    m.push(
        "container.alloc_bytes_per_app_byte",
        ratio(total.allocated as f64, total.bytes_written as f64),
        "ratio",
    );
    // Eq. 2b from the same traced rounds: t_io is the sync
    // configuration's blocked I/O per epoch, t_overhead the snapshot time
    // per epoch, and the gap is relative to the predicted epoch time.
    let epochs = traced.first().map_or(1, |r| r.epochs).max(1) as f64;
    let t_comp = traced.first().map_or(0.0, |r| r.compute_s);
    let per_epoch = |cfg: Cfg, f: fn(&ConfigRun) -> f64| {
        median(traced.iter().map(|r| f(&r.configs[cfg.index()])).collect()) / epochs
    };
    let t_io = per_epoch(Cfg::Sync, |c| c.io_s);
    for cfg in ASYNC_CFGS {
        let observed = per_epoch(cfg, |c| c.app_s);
        let t_overhead = layer(cfg).snapshot_s / n / epochs;
        let predicted = async_epoch_time(t_comp, t_io, t_overhead);
        m.push(
            format!("overlap.eq2b_gap.{}", cfg.name()),
            ratio((observed - predicted).abs(), predicted),
            "ratio",
        );
    }
    let app_sum = |r: &&Round| r.configs.iter().map(|c| c.app_s).sum::<f64>();
    let traced_app = median(traced.iter().map(app_sum).collect());
    let plain_app = median(untraced(rounds).map(|r| app_sum(&r)).collect());
    m.push("trace.overhead", ratio(traced_app, plain_app), "ratio");
    m
}
