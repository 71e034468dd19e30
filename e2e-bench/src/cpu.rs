//! Pins the benchmark process to one CPU.
//!
//! The application thread and the connector's background threads then
//! share one core, as a rank's background stream does on a node where
//! every core runs a rank. No hand-off between them waits for another
//! virtual CPU to wake up or to come free, which on a shared VM depends on
//! whatever else runs there and spread the async configurations' times
//! from one run to the next (see README.md, Steadiness).

/// `cpu_set_t`: 1024 bits.
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it starts from now on,
/// to the CPU it runs on now (the one the scheduler found free when the
/// process started). Returns that CPU.
pub fn pin_to_one() -> Result<usize, std::io::Error> {
    // SAFETY: no arguments; returns a CPU number or -1.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    if cpu >= SET_WORDS * 64 {
        return Err(std::io::Error::other(format!("cpu {cpu} beyond cpu_set_t")));
    }
    let mut one = [0u64; SET_WORDS];
    let size = std::mem::size_of_val(&one);
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes, the layout of
    // glibc's `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}
