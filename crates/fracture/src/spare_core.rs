//! Process-wide accounting of busy compute threads, so a greedy pass can
//! borrow a core that would otherwise sit idle.
//!
//! A thread is *busy* while it holds a [`Busy`] guard: the per-shape
//! pipeline, every refinement loop and the edge-only polish take one for
//! their whole run. A greedy pass that has two or more strips to score
//! asks [`take_spare`] for a second thread; the token is granted only
//! while the busy count is below `std::thread::available_parallelism()`,
//! and it counts as busy itself until dropped. One shape in flight on a
//! two-core host therefore scores every pass on both cores, while two
//! layout workers already filling both cores score serially.
//!
//! The gate never changes a result: a strip's score is a pure function
//! of the frozen map, whichever thread computes it.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Threads currently holding a [`Busy`] guard, process-wide. The count
/// publishes no other data, so every access is `Relaxed`.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Nesting depth of [`Busy::enter`] on this thread: only the
    /// outermost guard counts, so the pipeline's guard and the refinement
    /// loop's guard inside it mark one thread, not two.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Cores the process may run on, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Marks one compute thread busy until dropped: either the thread that
/// entered it ([`Busy::enter`]) or a helper granted by [`take_spare`].
/// Not `Send`, so it is dropped on the thread whose depth it tracks.
#[must_use = "the thread counts as busy only while the guard lives"]
pub(crate) struct Busy {
    /// `true` for a guard from [`Busy::enter`], `false` for a spare-core
    /// token.
    entered: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl Busy {
    /// Marks the calling thread busy. Nested guards on one thread count
    /// once.
    pub(crate) fn enter() -> Busy {
        if DEPTH.with(|d| d.replace(d.get() + 1)) == 0 {
            BUSY.fetch_add(1, Ordering::Relaxed);
        }
        Busy {
            entered: true,
            _thread_bound: PhantomData,
        }
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        let last = !self.entered || DEPTH.with(|d| d.replace(d.get() - 1)) == 1;
        if last {
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A token for one helper thread, granted only while fewer threads are
/// busy than the process has cores. Every call counts as one
/// `refine.spare_core.passes` (granted) or `refine.spare_core.denied`.
pub(crate) fn take_spare() -> Option<Busy> {
    let cores = cores();
    let granted = BUSY
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < cores).then_some(n + 1)
        })
        .is_ok();
    if !granted {
        maskfrac_obs::counter!("refine.spare_core.denied").incr();
        return None;
    }
    maskfrac_obs::counter!("refine.spare_core.passes").incr();
    Some(Busy {
        entered: false,
        _thread_bound: PhantomData,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn nested_guards_unwind_the_thread_depth() {
        let outer = Busy::enter();
        let inner = Busy::enter();
        assert_eq!(DEPTH.with(Cell::get), 2);
        drop(inner);
        assert_eq!(DEPTH.with(Cell::get), 1);
        drop(outer);
        assert_eq!(DEPTH.with(Cell::get), 0);
        drop(take_spare());
        assert_eq!(DEPTH.with(Cell::get), 0, "tokens never touch the depth");
    }

    #[test]
    fn no_token_while_every_core_is_busy() {
        // One busy thread per core saturates the gate whatever other
        // tests hold concurrently: they can only add to the count.
        let entered = Barrier::new(cores() + 1);
        let release = Barrier::new(cores() + 1);
        std::thread::scope(|scope| {
            for _ in 0..cores() {
                scope.spawn(|| {
                    let _busy = Busy::enter();
                    entered.wait();
                    release.wait();
                });
            }
            entered.wait();
            assert!(take_spare().is_none());
            release.wait();
        });
    }
}
