//! Pins the harness to one CPU before any thread starts.
//!
//! On the 2-vCPU VM the benchmark was sized on, h1-tcp-async's engine
//! thread and reactor thread wake each other across vCPUs thousands of
//! times per second, and after 10–20 s of that the host's steal time
//! rose to 15–25% and stayed there, cutting the campaign rate by a
//! third for the rest of the run. Pinned to one CPU, steal stayed near
//! zero and the rate held. The single-threaded workloads lose nothing
//! and no longer migrate. Threads inherit the mask, so it is set first
//! thing in `main`.

/// Restricts this thread (and every thread it spawns afterwards) to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` where
/// affinity cannot be set (the process then runs unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    if sys::get_affinity(&mut mask) < 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).rev().find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    (sys::set_affinity(&one) == 0).then_some(cpu)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    const SYS_SCHED_GETAFFINITY: usize = 204;

    /// # Safety
    /// `mask` must point to `len` readable (and, for the get call,
    /// writable) bytes.
    unsafe fn affinity_syscall(nr: usize, mask: *mut u64, len: usize) -> isize {
        let ret: isize;
        // SAFETY: the caller guarantees `mask`/`len` describe a live
        // buffer; pid 0 names the calling thread; the kernel touches no
        // other memory, and rcx/r11 are declared clobbered.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// `sched_getaffinity(0, …)`: fills `mask`; negative errno on failure.
    pub fn get_affinity(mask: &mut [u64; 16]) -> isize {
        // SAFETY: `mask` is a live, writable 128-byte buffer.
        unsafe { affinity_syscall(SYS_SCHED_GETAFFINITY, mask.as_mut_ptr(), size_of_val(mask)) }
    }

    /// `sched_setaffinity(0, …)`: 0 on success, negative errno on failure.
    pub fn set_affinity(mask: &[u64; 16]) -> isize {
        // SAFETY: `mask` is a live 128-byte buffer the kernel only reads.
        unsafe {
            affinity_syscall(SYS_SCHED_SETAFFINITY, mask.as_ptr().cast_mut(), size_of_val(mask))
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub fn get_affinity(_mask: &mut [u64; 16]) -> isize {
        -1
    }

    pub fn set_affinity(_mask: &[u64; 16]) -> isize {
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_a_thread_to_a_cpu_it_was_allowed_on() {
        if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            return;
        }
        // Run on a fresh thread so the test harness's threads stay free.
        std::thread::spawn(|| {
            let mut before = [0u64; 16];
            assert!(sys::get_affinity(&mut before) > 0);
            let cpu = pin_to_one_cpu().expect("affinity is settable on linux");
            assert!(before[cpu / 64] & (1 << (cpu % 64)) != 0);
            let mut after = [0u64; 16];
            assert!(sys::get_affinity(&mut after) > 0);
            assert_eq!(after.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert!(after[cpu / 64] & (1 << (cpu % 64)) != 0);
        })
        .join()
        .expect("pinning thread");
    }
}
