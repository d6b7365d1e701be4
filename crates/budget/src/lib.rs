//! Resource budgets: stop conditions and the one physical memory reading,
//! with no dependencies so every layer can use them:
//!
//! - [`Limits`] — every bound a long run stops on (work and conflict
//!   budgets, the run deadline, the memory budget and a [`CancelToken`])
//!   in one value, with one [`Limits::check`] that names
//!   the bound that holds as a typed [`Stop`]. The solver's search loop and
//!   the SAT attack's DIP loop each poll it at one site.
//!   The memory budget caps the SAT solver's *logical* bytes (what it
//!   asked for, element count × element size, never what the allocator
//!   reserved), so a budget trip at N logical bytes reproduces on every
//!   machine, while an RSS-based verdict would quarantine different
//!   instances on different hosts (see `DESIGN.md` §12).
//! - [`process_rss_bytes`] — the one deliberately *physical* reading, for
//!   the serve-side watermark that sheds load before the OS OOM-kills the
//!   process. Shedding is machine-local back-pressure, not a label, so
//!   physical truth is the right measure there.

mod limits;

pub use limits::{CancelToken, Limits, Poll, Stop};

/// Resident-set size of the current process in bytes, if the platform
/// exposes it (`/proc/self/statm` on Linux; `None` elsewhere).
///
/// This is a physical measurement — use it only for machine-local shedding
/// decisions (the serve watermark), never for anything that labels or
/// quarantines an instance.
pub fn process_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        // Page size is 4 KiB on every Linux target this workspace builds
        // for; sysconf would need libc, which this crate deliberately
        // avoids.
        Some(resident_pages * 4096)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_available_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = process_rss_bytes().expect("statm readable");
            assert!(rss > 0, "a running process has resident pages");
        }
    }
}
