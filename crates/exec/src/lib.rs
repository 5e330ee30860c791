//! Deterministic fixed-partition parallel execution for batch drivers.
//!
//! Every heavyweight sweep in this workspace — the paper-artifact
//! `repro` runner, the model checker's scope battery, the mutation kill
//! pipeline, and the fault-injection campaign — is a grid of
//! independent *cells* whose results are reduced into a byte-stable
//! report. This crate is the one execution engine under all of them:
//!
//! * **Fixed partition** — with `jobs = N`, worker `w` owns exactly the
//!   cells whose index `i` satisfies `i % N == w`, and runs them in
//!   increasing index order. The cell→worker mapping is a pure function
//!   of `(index, jobs)`, never of scheduling, so a driver that keys
//!   per-worker resources (the mutation engine's scratch workspaces)
//!   gets stable affinity for free.
//! * **Index-ordered reduction** — results come back as a `Vec` in cell
//!   order regardless of completion order or worker count. A driver
//!   that renders that `Vec` renders identical bytes for any `--jobs`.
//! * **Panic capture** — a panicking cell becomes a typed
//!   [`CellFailure`] in its slot instead of tearing down the sweep; the
//!   remaining cells still run.
//! * **Instrumentation** — each cell's wall-clock duration (read
//!   through the vendored bench harness, the workspace's sanctioned
//!   timing home: `clippy.toml` disallows `Instant::now` everywhere
//!   else) and completion events are delivered to an observer on
//!   the caller's thread. Progress is for stderr; durations must never
//!   be rendered into report bytes.
//!
//! The shared `--jobs N` CLI convention lives here too:
//! [`parse_jobs`] for the flag value and [`default_jobs`] /
//! [`resolve_jobs`] for the worker count.

#![deny(rust_2018_idioms)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Hard ceiling on the worker count, matching the widest machine the
/// sweeps are tuned for; `--jobs` values above it are clamped.
pub const MAX_JOBS: usize = 16;

/// The default worker count when `--jobs` is absent: the machine's
/// available parallelism, capped at 4 so a laptop stays usable while a
/// sweep runs. Using the CPU count never affects report bytes — only
/// wall-clock — so determinism is preserved.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Resolves the effective worker count for a sweep of `cells` cells:
/// the requested count (or [`default_jobs`]) clamped to
/// `1..=`[`MAX_JOBS`] and never more than the cell count.
pub fn resolve_jobs(requested: Option<usize>, cells: usize) -> usize {
    requested
        .unwrap_or_else(default_jobs)
        .clamp(1, MAX_JOBS)
        .min(cells.max(1))
}

/// Parses the value of the shared `--jobs` flag: a positive integer.
///
/// # Errors
///
/// Returns a usage message for zero or non-numeric values.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(0) => Err("--jobs must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("--jobs: {e}")),
    }
}

/// Where a cell ran: its index in the input grid and the worker that
/// owned it under the fixed partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCtx {
    /// Zero-based index of the cell in the input slice.
    pub index: usize,
    /// Zero-based worker id (`index % jobs`).
    pub worker: usize,
}

/// A cell that did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The cell function panicked; the payload's message is preserved.
    Panic {
        /// The panic payload rendered as one line.
        message: String,
    },
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Panic { message } => write!(f, "cell panicked: {message}"),
        }
    }
}

impl std::error::Error for CellFailure {}

/// One finished cell: its value (or typed failure) plus wall-clock
/// instrumentation. The duration is progress telemetry only — report
/// renderers must not include it, or byte determinism is lost.
#[derive(Debug, Clone)]
pub struct CellResult<T> {
    /// The cell's value, or how it failed.
    pub result: Result<T, CellFailure>,
    /// Which worker ran the cell.
    pub worker: usize,
    /// Wall-clock time the cell took (instrumentation only).
    pub duration: Duration,
}

/// A completion event delivered to the observer, on the caller's
/// thread, in *completion* order (which varies with scheduling — route
/// anything derived from it to stderr, never into a report).
#[derive(Debug)]
pub struct CellEvent<'a, T> {
    /// Index of the finished cell.
    pub index: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// Its result.
    pub result: &'a Result<T, CellFailure>,
    /// Its wall-clock duration.
    pub duration: Duration,
    /// How many cells have finished so far (1-based).
    pub done: usize,
    /// Total cells in the sweep.
    pub total: usize,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    msg.replace('\n', "; ")
}

/// Runs `f` over every cell with `jobs` workers and returns the results
/// in cell-index order. See the crate docs for the determinism
/// contract. Equivalent to [`run_cells_observed`] with a no-op
/// observer.
pub fn run_cells<In, Out, F>(jobs: usize, cells: &[In], f: F) -> Vec<CellResult<Out>>
where
    In: Sync,
    Out: Send,
    F: Fn(CellCtx, &In) -> Out + Sync,
{
    run_cells_observed(jobs, cells, f, |_| {})
}

/// Runs `f` over every cell with `jobs` workers, invoking `observer`
/// on the caller's thread as cells complete, and returns the results in
/// cell-index order.
///
/// `jobs` is clamped as by [`resolve_jobs`]. Worker `w` executes cells
/// `w, w + jobs, w + 2·jobs, …` sequentially, so two cells mapped to
/// the same worker never overlap and per-worker resources need no
/// locking. A panic inside `f` is captured as
/// [`CellFailure::Panic`] for that cell only.
pub fn run_cells_observed<In, Out, F, O>(
    jobs: usize,
    cells: &[In],
    f: F,
    mut observer: O,
) -> Vec<CellResult<Out>>
where
    In: Sync,
    Out: Send,
    F: Fn(CellCtx, &In) -> Out + Sync,
    O: FnMut(CellEvent<'_, Out>),
{
    let jobs = resolve_jobs(Some(jobs), cells.len());
    let mut slots: Vec<Option<CellResult<Out>>> = Vec::new();
    slots.resize_with(cells.len(), || None);

    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, usize, Result<Out, CellFailure>, Duration)>();
        for worker in 0..jobs {
            let tx = tx.clone();
            let f = &f;
            scope.spawn(move || {
                let mut index = worker;
                while index < cells.len() {
                    let ctx = CellCtx { index, worker };
                    let cell = &cells[index];
                    let (caught, duration) =
                        criterion::time_fn(|| catch_unwind(AssertUnwindSafe(|| f(ctx, cell))));
                    let result = caught.map_err(|payload| CellFailure::Panic {
                        message: panic_message(payload),
                    });
                    if tx.send((index, worker, result, duration)).is_err() {
                        return;
                    }
                    index += jobs;
                }
            });
        }
        drop(tx);

        let total = cells.len();
        for (done, (index, worker, result, duration)) in (1..).zip(rx) {
            observer(CellEvent {
                index,
                worker,
                result: &result,
                duration,
                done,
                total,
            });
            slots[index] = Some(CellResult {
                result,
                worker,
                duration,
            });
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            let Some(cell) = slot else {
                // Every spawned worker either fills its slots or the
                // scope propagates its death; an empty slot is
                // unreachable once the scope has joined.
                unreachable!("cell {index} finished without reporting a result")
            };
            cell
        })
        .collect()
}

/// Formats a duration for progress lines: seconds with millisecond
/// resolution (`12.345s`), stable enough to read, explicitly *not*
/// byte-stable across runs — stderr only.
pub fn human_duration(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_grid(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn results_are_index_ordered_for_any_worker_count() {
        let cells = square_grid(23);
        let baseline: Vec<usize> = cells.iter().map(|&c| c * c).collect();
        for jobs in [1, 2, 3, 8, MAX_JOBS, 64] {
            let out = run_cells(jobs, &cells, |_, &c| c * c);
            let values: Vec<usize> = out
                .into_iter()
                .map(|r| r.result.expect("no cell fails"))
                .collect();
            assert_eq!(values, baseline, "jobs = {jobs}");
        }
    }

    #[test]
    fn partition_is_fixed_and_round_robin() {
        let cells = square_grid(10);
        let out = run_cells(3, &cells, |ctx, _| ctx);
        for (i, cell) in out.iter().enumerate() {
            let ctx = cell.result.clone().expect("no cell fails");
            assert_eq!(ctx.index, i);
            assert_eq!(ctx.worker, i % 3, "cell {i} must run on worker {}", i % 3);
            assert_eq!(cell.worker, i % 3);
        }
    }

    #[test]
    fn panics_become_typed_failures_without_killing_the_sweep() {
        let cells = square_grid(6);
        let out = run_cells(2, &cells, |_, &c| {
            assert!(c != 3, "cell three is poisoned");
            c
        });
        for (i, cell) in out.iter().enumerate() {
            if i == 3 {
                let Err(CellFailure::Panic { message }) = &cell.result else {
                    panic!("cell 3 must fail, got {:?}", cell.result);
                };
                assert!(message.contains("poisoned"), "{message}");
            } else {
                assert_eq!(cell.result, Ok(i));
            }
        }
    }

    #[test]
    fn observer_sees_every_cell_exactly_once_with_monotonic_done() {
        let cells = square_grid(12);
        let mut seen = vec![0u32; cells.len()];
        let mut last_done = 0;
        run_cells_observed(
            4,
            &cells,
            |_, &c| c,
            |event| {
                seen[event.index] += 1;
                assert_eq!(event.done, last_done + 1);
                assert_eq!(event.total, 12);
                last_done = event.done;
            },
        );
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
    }

    #[test]
    fn jobs_resolution_clamps() {
        assert_eq!(resolve_jobs(Some(0), 10), 1);
        assert_eq!(resolve_jobs(Some(999), 10), 10);
        assert_eq!(resolve_jobs(Some(999), 999), MAX_JOBS);
        assert_eq!(resolve_jobs(Some(4), 0), 1);
        assert!(resolve_jobs(None, 100) >= 1);
    }

    #[test]
    fn parse_jobs_contract() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("x").is_err());
    }

    #[test]
    fn empty_grid_is_fine() {
        let out = run_cells(8, &[] as &[usize], |_, &c| c);
        assert!(out.is_empty());
    }

    #[test]
    fn same_worker_cells_never_overlap() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Worker 0 owns cells 0 and 2; if it ran them concurrently the
        // entry counter would observe two simultaneous occupants.
        let in_flight: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        let cells = square_grid(8);
        run_cells(2, &cells, |ctx, _| {
            let gauge = &in_flight[ctx.worker];
            let was = gauge.fetch_add(1, Ordering::SeqCst);
            assert_eq!(was, 0, "worker {} re-entered", ctx.worker);
            std::thread::sleep(Duration::from_millis(2));
            gauge.fetch_sub(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn human_duration_renders_millis() {
        assert_eq!(human_duration(Duration::from_millis(1500)), "1.500s");
    }
}
