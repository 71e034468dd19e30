//! The three workloads. Each generates its inputs from the seed, runs
//! one configuration's timed body through the public `File`/`Group`/
//! `Dataset` API, and checks what the program returned and stored
//! against the seeded generator or a plain `Vec` model.

use std::sync::Arc;
use std::time::Duration;

use h5lite::{
    Container, Dataset, Dataspace, File, Group, Hyperslab, Layout, NativeVol, Result, Selection,
};
use kernels::vpic::{interleaved_slab, PROPERTIES};

use crate::rig::{Call, Cfg, Device, Probe, Rig};

/// SplitMix64 finaliser: the one mixing function behind every seeded
/// value and every seeded choice.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded float in [0, 1) for element `i` of stream `stream`.
fn value(seed: u64, stream: u64, i: u64) -> f32 {
    let h = mix(seed ^ mix(stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ i));
    (h >> 40) as f32 / (1u64 << 24) as f32
}

fn values(seed: u64, stream: u64, n: u64) -> Vec<f32> {
    (0..n).map(|i| value(seed, stream, i)).collect()
}

/// A seeded choice stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0) % n
    }
}

fn sleep(secs: f64) {
    std::thread::sleep(Duration::from_secs_f64(secs));
}

fn mismatch(what: String) -> String {
    format!("output check failed: {what}")
}

/// One workload: inputs from a seed, a timed body per configuration,
/// and checks that need no stored copy of earlier output.
pub trait Workload {
    type Inputs;
    type Out;

    /// Generate the payloads and operation stream from `seed`.
    fn generate(&self, seed: u64) -> Self::Inputs;

    /// Build the container and connector (part of set-up).
    fn prepare(&self, inputs: &Self::Inputs, cfg: Cfg, traced: bool) -> Result<Rig>;

    /// The timed body: first create through final flush.
    fn run(&self, inputs: &Self::Inputs, rig: &Rig, probe: &mut Probe) -> Result<Self::Out>;

    /// Check the values the body returned and the reopened container.
    fn check(
        &self,
        inputs: &Self::Inputs,
        out: &Self::Out,
        reopened: &File,
    ) -> std::result::Result<(), String>;

    /// Writes the body issues through the connector.
    fn writes(&self) -> u64;

    /// Epochs (steps) per body and the compute sleep of each, for Eq. 2b.
    fn epochs(&self) -> u64;
    fn compute_s(&self) -> f64;
}

fn step_group(t: u64) -> String {
    format!("Step#{t}")
}

// ----- vpic_write ------------------------------------------------------

/// VPIC-IO checkpoint shape: 8 f32 particle-property datasets per step,
/// each written whole in one contiguous slab.
pub struct VpicWrite {
    particles: u64,
    steps: u64,
    compute_s: f64,
}

impl VpicWrite {
    /// 8 MiB per step over 4 steps; `small` is the test size.
    pub fn sized(small: bool) -> VpicWrite {
        VpicWrite {
            particles: if small { 1 << 12 } else { 1 << 18 },
            steps: if small { 2 } else { 4 },
            // Shorter than a step's background writes (about 1.8 ms in
            // `async`), so the background path is on the critical path
            // once write calls return quickly. It is not while
            // `write_slab_async` converts on the caller's thread: see README.
            compute_s: 0.0005,
        }
    }
}

impl Workload for VpicWrite {
    /// Payload of `Step#t/<prop>` at index `t * 8 + prop`.
    type Inputs = Vec<Vec<f32>>;
    type Out = ();

    fn generate(&self, seed: u64) -> Vec<Vec<f32>> {
        (0..self.steps * PROPERTIES.len() as u64)
            .map(|s| values(seed, s, self.particles))
            .collect()
    }

    fn prepare(&self, _inputs: &Vec<Vec<f32>>, cfg: Cfg, traced: bool) -> Result<Rig> {
        Ok(Rig::create(cfg, traced))
    }

    fn run(&self, inputs: &Vec<Vec<f32>>, rig: &Rig, p: &mut Probe) -> Result<()> {
        let slab = Selection::Slab(Hyperslab::range1(0, self.particles));
        let space = Dataspace::d1(self.particles);
        for t in 0..self.steps {
            let group = p.call(Call::Create, || {
                rig.file.root().create_group(&step_group(t))
            })?;
            let mut datasets = Vec::with_capacity(PROPERTIES.len());
            for prop in PROPERTIES {
                datasets.push(p.call(Call::Create, || group.create_dataset::<f32>(prop, &space))?);
            }
            for (k, ds) in datasets.iter().enumerate() {
                let data = &inputs[t as usize * PROPERTIES.len() + k];
                // Settled collectively by wait_all at the end of the run.
                let _req = p.call(Call::Write, || ds.write_slab_async(&slab, data))?;
                p.bytes_written += data.len() as u64 * 4;
            }
            sleep(self.compute_s);
        }
        p.call(Call::Wait, || rig.file.wait_all())?;
        p.call(Call::Flush, || rig.file.flush())
    }

    fn check(
        &self,
        inputs: &Vec<Vec<f32>>,
        _out: &(),
        reopened: &File,
    ) -> std::result::Result<(), String> {
        for t in 0..self.steps {
            for (k, prop) in PROPERTIES.iter().enumerate() {
                let path = format!("{}/{prop}", step_group(t));
                let got = reopened
                    .root()
                    .open_dataset(&path)
                    .and_then(|ds| ds.read::<f32>())
                    .map_err(|e| mismatch(format!("{path}: {e}")))?;
                if got != inputs[t as usize * PROPERTIES.len() + k] {
                    return Err(mismatch(format!("{path} differs from the generator")));
                }
            }
        }
        Ok(())
    }

    fn writes(&self) -> u64 {
        self.steps * PROPERTIES.len() as u64
    }

    fn epochs(&self) -> u64 {
        self.steps
    }

    fn compute_s(&self) -> f64 {
        self.compute_s
    }
}

// ----- bdcats_read -----------------------------------------------------

/// BD-CATS-IO analysis shape: rank `rank` of `ranks` reads every
/// `ranks`-th particle of each property of each step of a VPIC-shaped
/// file, then writes a u32 cluster label for each particle it read.
pub struct BdcatsRead {
    particles: u64,
    steps: u64,
    ranks: u32,
    compute_s: f64,
}

pub struct BdcatsInputs {
    rank: u32,
    /// Source payload of `Step#t/<prop>` at index `t * 8 + prop`.
    source: Vec<Vec<f32>>,
    /// The rank's cluster labels for each step.
    labels: Vec<Vec<u32>>,
}

impl BdcatsRead {
    /// A 32 MiB source file read by rank r of 4; `small` is the test size.
    pub fn sized(small: bool) -> BdcatsRead {
        BdcatsRead {
            particles: if small { 1 << 12 } else { 1 << 18 },
            steps: if small { 2 } else { 4 },
            ranks: 4,
            // Long enough for the background prefetch of a step (8 strided
            // reads) to finish, so later reads are served from the slot.
            compute_s: if small { 0.001 } else { 0.06 },
        }
    }

    fn share(&self) -> u64 {
        self.particles / self.ranks as u64
    }
}

/// Open a step's group and its 8 property datasets.
fn open_step(file: &File, p: &mut Probe, t: u64) -> Result<(Group, Vec<Dataset>)> {
    let group = p.call(Call::Open, || file.root().open_group(&step_group(t)))?;
    let datasets = PROPERTIES
        .iter()
        .map(|prop| p.call(Call::Open, || group.open_dataset(prop)))
        .collect::<Result<_>>()?;
    Ok((group, datasets))
}

impl Workload for BdcatsRead {
    type Inputs = BdcatsInputs;
    /// The values each read returned, at index `t * 8 + prop`.
    type Out = Vec<Vec<f32>>;

    fn generate(&self, seed: u64) -> BdcatsInputs {
        let props = PROPERTIES.len() as u64;
        BdcatsInputs {
            rank: (mix(seed) % self.ranks as u64) as u32,
            source: (0..self.steps * props)
                .map(|s| values(seed, s, self.particles))
                .collect(),
            labels: (0..self.steps)
                .map(|t| {
                    (0..self.share())
                        .map(|i| (mix(seed ^ mix(t << 32 | i)) % 64) as u32)
                        .collect()
                })
                .collect(),
        }
    }

    /// Write and flush the source file synchronously, then open it
    /// through the configuration's connector.
    fn prepare(&self, inputs: &BdcatsInputs, cfg: Cfg, traced: bool) -> Result<Rig> {
        let data = Device::new(traced);
        let container = Arc::new(Container::create(data.backend.clone()));
        let source = File::from_parts(container.clone(), Arc::new(NativeVol::new()));
        let space = Dataspace::d1(self.particles);
        for t in 0..self.steps {
            let group = source.root().create_group(&step_group(t))?;
            for (k, prop) in PROPERTIES.iter().enumerate() {
                let ds = group.create_dataset::<f32>(prop, &space)?;
                ds.write(&inputs.source[t as usize * PROPERTIES.len() + k])?;
            }
        }
        source.flush()?;
        drop(source);
        Ok(Rig::connect(cfg, container, data, traced))
    }

    fn run(&self, inputs: &BdcatsInputs, rig: &Rig, p: &mut Probe) -> Result<Vec<Vec<f32>>> {
        let slab = interleaved_slab(inputs.rank, self.ranks, self.share());
        let sel = Selection::Slab(slab.clone());
        let space = Dataspace::d1(self.particles);
        let mut out = Vec::with_capacity((self.steps as usize) * PROPERTIES.len());
        let mut next = Some(open_step(&rig.file, p, 0)?);
        for t in 0..self.steps {
            let (group, datasets) = next.take().expect("each step opens the next");
            for ds in &datasets {
                let got = p.call(Call::Read, || ds.read_slab::<f32>(&slab))?;
                p.bytes_read += got.len() as u64 * 4;
                out.push(got);
            }
            if t + 1 < self.steps {
                let (_, upcoming) = next.insert(open_step(&rig.file, p, t + 1)?);
                if let Some(vol) = &rig.vol {
                    for ds in upcoming.iter() {
                        let _req = p.call(Call::Prefetch, || {
                            Ok(vol.prefetch(rig.container(), ds.id(), &sel))
                        })?;
                    }
                }
            }
            sleep(self.compute_s);
            let labels = p.call(Call::Create, || {
                group.create_dataset::<u32>("labels", &space)
            })?;
            let data = &inputs.labels[t as usize];
            let _req = p.call(Call::Write, || labels.write_slab_async(&sel, data))?;
            p.bytes_written += data.len() as u64 * 4;
        }
        p.call(Call::Wait, || rig.file.wait_all())?;
        p.call(Call::Flush, || rig.file.flush())?;
        Ok(out)
    }

    fn check(
        &self,
        inputs: &BdcatsInputs,
        out: &Vec<Vec<f32>>,
        reopened: &File,
    ) -> std::result::Result<(), String> {
        let (r, stride) = (inputs.rank as usize, self.ranks as usize);
        for (s, got) in out.iter().enumerate() {
            let want: Vec<f32> = inputs.source[s]
                .iter()
                .skip(r)
                .step_by(stride)
                .copied()
                .collect();
            if *got != want {
                return Err(mismatch(format!("read {s} returned wrong values")));
            }
        }
        for t in 0..self.steps {
            for (k, prop) in PROPERTIES.iter().enumerate() {
                let path = format!("{}/{prop}", step_group(t));
                let got = reopened
                    .root()
                    .open_dataset(&path)
                    .and_then(|ds| ds.read::<f32>())
                    .map_err(|e| mismatch(format!("{path}: {e}")))?;
                if got != inputs.source[t as usize * PROPERTIES.len() + k] {
                    return Err(mismatch(format!("{path} differs from the generator")));
                }
            }
            let path = format!("{}/labels", step_group(t));
            let got = reopened
                .root()
                .open_dataset(&path)
                .and_then(|ds| ds.read::<u32>())
                .map_err(|e| mismatch(format!("{path}: {e}")))?;
            let mut want = vec![0u32; self.particles as usize];
            for (k, &label) in inputs.labels[t as usize].iter().enumerate() {
                want[r + k * stride] = label;
            }
            if got != want {
                return Err(mismatch(format!("{path} differs from the generator")));
            }
        }
        Ok(())
    }

    fn writes(&self) -> u64 {
        self.steps
    }

    fn epochs(&self) -> u64 {
        self.steps
    }

    fn compute_s(&self) -> f64 {
        self.compute_s
    }
}

// ----- chunk_meta ------------------------------------------------------

/// Many-small-chunks metadata shape: chunked f32 datasets receive first
/// writes in a seeded random chunk order, with a read-after-write of a
/// random earlier chunk every `raw_every` writes and a `wait_all` +
/// `flush` at the end of each epoch.
pub struct ChunkMeta {
    datasets: u64,
    chunks: u64,
    chunk_elems: u64,
    epochs: u64,
    raw_every: u64,
}

#[derive(Clone, Copy)]
enum Op {
    Write { ds: usize, chunk: u64 },
    Read { ds: usize, chunk: u64 },
    EndEpoch,
}

pub struct ChunkInputs {
    ops: Vec<Op>,
    /// Every chunk's payload, dataset by dataset.
    payload: Vec<Vec<f32>>,
}

impl ChunkMeta {
    /// 4 × 1024 chunks of 64 bytes; `small` is the test size.
    pub fn sized(small: bool) -> ChunkMeta {
        ChunkMeta {
            datasets: if small { 2 } else { 4 },
            chunks: if small { 64 } else { 1024 },
            chunk_elems: 16,
            epochs: if small { 2 } else { 4 },
            raw_every: 32,
        }
    }

    fn range(&self, chunk: u64) -> std::ops::Range<usize> {
        let start = (chunk * self.chunk_elems) as usize;
        start..start + self.chunk_elems as usize
    }
}

impl Workload for ChunkMeta {
    type Inputs = ChunkInputs;
    /// The values each read-after-write returned, in stream order.
    type Out = Vec<Vec<f32>>;

    fn generate(&self, seed: u64) -> ChunkInputs {
        let mut rng = Rng(mix(seed ^ 0xC0FF_EE00));
        let total = self.datasets * self.chunks;
        let mut order: Vec<(usize, u64)> = (0..total)
            .map(|i| ((i / self.chunks) as usize, i % self.chunks))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let per_epoch = total / self.epochs;
        let mut ops = Vec::new();
        for (i, &(ds, chunk)) in order.iter().enumerate() {
            ops.push(Op::Write { ds, chunk });
            let done = i as u64 + 1;
            if done.is_multiple_of(self.raw_every) {
                let (ds, chunk) = order[rng.below(done) as usize];
                ops.push(Op::Read { ds, chunk });
            }
            if done.is_multiple_of(per_epoch) {
                ops.push(Op::EndEpoch);
            }
        }
        ChunkInputs {
            ops,
            payload: (0..self.datasets)
                .map(|d| values(seed, 1 << 40 | d, self.chunks * self.chunk_elems))
                .collect(),
        }
    }

    fn prepare(&self, _inputs: &ChunkInputs, cfg: Cfg, traced: bool) -> Result<Rig> {
        Ok(Rig::create(cfg, traced))
    }

    fn run(&self, inputs: &ChunkInputs, rig: &Rig, p: &mut Probe) -> Result<Vec<Vec<f32>>> {
        let space = Dataspace::d1(self.chunks * self.chunk_elems);
        let layout = Layout::Chunked1D {
            chunk_elems: self.chunk_elems,
        };
        let group = p.call(Call::Create, || rig.file.root().create_group("chunks"))?;
        let mut datasets = Vec::with_capacity(self.datasets as usize);
        for d in 0..self.datasets {
            datasets.push(p.call(Call::Create, || {
                group.create_dataset_with_layout::<f32>(&format!("d{d}"), &space, layout.clone())
            })?);
        }
        let mut out = Vec::new();
        for op in &inputs.ops {
            match *op {
                Op::Write { ds, chunk } => {
                    let range = self.range(chunk);
                    let sel =
                        Selection::Slab(Hyperslab::range1(range.start as u64, self.chunk_elems));
                    let data = &inputs.payload[ds][range];
                    let _req = p.call(Call::Write, || datasets[ds].write_slab_async(&sel, data))?;
                    p.bytes_written += data.len() as u64 * 4;
                }
                Op::Read { ds, chunk } => {
                    let slab = Hyperslab::range1(chunk * self.chunk_elems, self.chunk_elems);
                    let got = p.call(Call::Read, || datasets[ds].read_slab::<f32>(&slab))?;
                    p.bytes_read += got.len() as u64 * 4;
                    out.push(got);
                }
                Op::EndEpoch => {
                    p.call(Call::Wait, || rig.file.wait_all())?;
                    p.call(Call::Flush, || rig.file.flush())?;
                }
            }
        }
        Ok(out)
    }

    /// Replays the operation stream into a `Vec` model: every
    /// read-after-write must match the model at that point of the
    /// stream, and the reopened datasets must match the final model.
    fn check(
        &self,
        inputs: &ChunkInputs,
        out: &Vec<Vec<f32>>,
        reopened: &File,
    ) -> std::result::Result<(), String> {
        let len = (self.chunks * self.chunk_elems) as usize;
        let mut model = vec![vec![0f32; len]; self.datasets as usize];
        let mut reads = out.iter();
        for op in &inputs.ops {
            match *op {
                Op::Write { ds, chunk } => {
                    let range = self.range(chunk);
                    model[ds][range.clone()].copy_from_slice(&inputs.payload[ds][range]);
                }
                Op::Read { ds, chunk } => {
                    let got = reads
                        .next()
                        .ok_or_else(|| mismatch("missing read".into()))?;
                    if got[..] != model[ds][self.range(chunk)] {
                        return Err(mismatch(format!("read-after-write of d{ds} chunk {chunk}")));
                    }
                }
                Op::EndEpoch => {}
            }
        }
        for (d, want) in model.iter().enumerate() {
            let path = format!("chunks/d{d}");
            let got = reopened
                .root()
                .open_dataset(&path)
                .and_then(|ds| ds.read::<f32>())
                .map_err(|e| mismatch(format!("{path}: {e}")))?;
            if got != *want {
                return Err(mismatch(format!("{path} differs from the model")));
            }
        }
        Ok(())
    }

    fn writes(&self) -> u64 {
        self.datasets * self.chunks
    }

    fn epochs(&self) -> u64 {
        self.epochs
    }

    fn compute_s(&self) -> f64 {
        0.0
    }
}
