// Fixture: must NOT trigger `unsafe-blocks` — the raw-syscall-shim shape
// the real `af-sys` crate's `sys` module uses: a module-wide `unsafe_code`
// re-enable earned by several unsafe sites, a SAFETY contract for
// callers on the wrapper declaration, and audits on the asm block and
// each wrapper call site.

#![allow(unsafe_code)]

// SAFETY: deferred to callers, who must pass pointer arguments that stay
// valid (and writable where the kernel writes) for the whole call.
unsafe fn syscall5(n: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    let ret: isize;
    // SAFETY: the x86_64 Linux syscall ABI — number in rax, args in
    // rdi/rsi/rdx/r10/r8, clobbers rcx/r11; the caller guarantees the
    // pointer arguments.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret
}

pub fn epoll_create1(flags: usize) -> isize {
    // SAFETY: epoll_create1 takes no pointer arguments.
    unsafe { syscall5(291, flags, 0, 0, 0, 0) }
}
