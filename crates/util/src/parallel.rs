//! Scoped-thread data parallelism.
//!
//! A tiny, predictable alternative to a global thread pool: [`parallel_map`]
//! spawns scoped workers (`std::thread::scope`), pulls indices off a shared
//! atomic counter (dynamic load balancing — metric screening has wildly
//! uneven per-item cost), and scatters results back *in input order*, so
//! callers get deterministic output regardless of scheduling.
//!
//! Thread count resolution: `EFD_THREADS` env var if set, else
//! `std::thread::available_parallelism()`, always clamped to the item count.
//! Workloads of one item (or one thread) run inline with zero spawn cost.
//!
//! Bulk memory work — filling a fresh buffer, or reading a whole file
//! into one ([`read_file`]) — splits a slice into contiguous parts with
//! [`parallel_parts_mut`] instead: the page faults of a fresh
//! allocation then land on every core, not on one.

#[cfg(unix)]
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The least bulk memory work, in bytes, worth a thread of its own:
/// below 1 MiB a thread spawn (tens of microseconds) costs more than the
/// page faults, copying or hashing it takes over. [`read_file`] reads
/// parts at least this long.
pub const PART_MIN_BYTES: usize = 1 << 20;

/// Number of worker threads to use for `n_items` work items.
///
/// Honors the `EFD_THREADS` environment variable (values `< 1` are treated
/// as 1); otherwise uses the machine's available parallelism.
pub fn num_threads(n_items: usize) -> usize {
    let hw = std::env::var("EFD_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    hw.min(n_items).max(1)
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// `f` runs on scoped worker threads; panics in `f` propagate to the caller.
///
/// ```
/// let squares = efd_util::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_init(items, || (), |(), item| f(item))
}

/// Like [`parallel_map`], but with per-thread mutable state created by
/// `init` (e.g. a scratch buffer or a thread-local RNG).
///
/// Note: which items share a state instance depends on scheduling; for
/// reproducible stochastic work, derive per-item seeds instead of relying
/// on state (see `efd_util::rng::derive_seed`).
pub fn parallel_map_init<T, U, S, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = num_threads(n);
    if workers == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let next = AtomicUsize::new(0);
    // Each worker buffers (index, result) locally, then scatters under a
    // short-lived lock; results end up in input order.
    let out: Mutex<Vec<Option<U>>> = Mutex::new((0..n).map(|_| None).collect());

    // `std::thread::scope` joins all workers on exit and propagates any
    // worker panic to the caller.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&mut state, &items[i])));
                }
                let mut guard = out.lock().expect("scatter lock poisoned");
                for (i, v) in local {
                    guard[i] = Some(v);
                }
            });
        }
    });

    out.into_inner()
        .expect("scatter lock poisoned")
        .into_iter()
        .map(|v| v.expect("all indices filled"))
        .collect()
}

/// Run `f` over `items` in parallel for side effects only.
pub fn parallel_for_each<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    let _ = parallel_map(items, |item| {
        f(item);
    });
}

/// Run `f(offset, part)` over contiguous parts of `items`, returning
/// the results in part order. `offset` is the index in `items` of the
/// part's first element.
///
/// There are [`num_threads`]`(items.len() / min_part)` parts, of equal
/// length give or take one element, so every part holds at least
/// `min_part` elements. One part (fewer than `2 * min_part` items, or
/// one thread) runs inline with no spawn. The calling thread works on
/// parts too; if a helper thread cannot be started, the threads that
/// run take its parts.
///
/// ```
/// let mut buf = vec![0u32; 10];
/// let lens = efd_util::parallel_parts_mut(&mut buf, 4, |offset, part| {
///     for (i, x) in part.iter_mut().enumerate() {
///         *x = (offset + i) as u32;
///     }
///     part.len()
/// });
/// assert_eq!(buf, (0..10).collect::<Vec<u32>>());
/// assert_eq!(lens.iter().sum::<usize>(), 10);
/// ```
pub fn parallel_parts_mut<T, R, F>(items: &mut [T], min_part: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let parts = num_threads(items.len() / min_part.max(1));
    if parts == 1 {
        return vec![f(0, items)];
    }
    let (base, extra) = (items.len() / parts, items.len() % parts);
    let mut queue = Vec::with_capacity(parts);
    let (mut rest, mut offset) = (items, 0);
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        let (part, tail) = rest.split_at_mut(len);
        queue.push((i, offset, part));
        (rest, offset) = (tail, offset + len);
    }
    queue.reverse(); // `pop` hands out the first part first
    let queue = Mutex::new(queue);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..parts).map(|_| None).collect());
    let work = || loop {
        let next = queue.lock().expect("part queue lock poisoned").pop();
        let Some((i, offset, part)) = next else {
            break;
        };
        let r = f(offset, part);
        results.lock().expect("part results lock poisoned")[i] = Some(r);
    };
    // `std::thread::scope` joins every helper and propagates a panic.
    std::thread::scope(|scope| {
        for _ in 1..parts {
            if std::thread::Builder::new()
                .spawn_scoped(scope, work)
                .is_err()
            {
                break;
            }
        }
        work();
    });
    results
        .into_inner()
        .expect("part results lock poisoned")
        .into_iter()
        .map(|r| r.expect("every part ran"))
        .collect()
}

/// Read a whole file, like `std::fs::read`, with the parts of a large
/// file read on several threads.
///
/// On unix a regular file's bytes go into one zeroed buffer of its
/// length, read as contiguous parts of at least 1 MiB (one per
/// [`num_threads`]) with positioned reads, so a file under 2 MiB is
/// read on the calling thread. If the file turns out shorter or longer
/// than its length when it was opened, it is read again with
/// `std::fs::read`: the result never holds bytes that were not read.
/// Other files and other targets read through `std::fs::read`.
pub fn read_file(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    #[cfg(unix)]
    {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        if let (true, Ok(len)) = (meta.is_file(), usize::try_from(meta.len())) {
            return read_exact_len(path, &file, len);
        }
    }
    std::fs::read(path)
}

/// Read `len` bytes of `file` in parts and check that the file ends
/// there; when it does not (it changed size since `len` was taken),
/// return `std::fs::read(path)` instead.
#[cfg(unix)]
fn read_exact_len(path: &Path, file: &File, len: usize) -> io::Result<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let mut bytes = vec![0u8; len];
    let reads = parallel_parts_mut(&mut bytes, PART_MIN_BYTES, |offset, part| {
        file.read_exact_at(part, offset as u64)
    });
    for read in reads {
        match read {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return std::fs::read(path),
            read => read?,
        }
    }
    if file.read_at(&mut [0u8], len as u64)? != 0 {
        return std::fs::read(path);
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still produce ordered output.
        let items: Vec<u64> = (0..200).collect();
        let out = parallel_map(&items, |&x| {
            let spins = if x % 17 == 0 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn for_each_visits_all() {
        let counter = AtomicU64::new(0);
        let items: Vec<u64> = (1..=1000).collect();
        parallel_for_each(&items, |&x| {
            counter.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500_500);
    }

    #[test]
    fn map_init_state_reused_within_thread() {
        // The state is a push counter; the sum over all threads must equal
        // the item count even though the per-thread split is nondeterministic.
        let items: Vec<u32> = (0..512).collect();
        let out = parallel_map_init(
            &items,
            || 0u32,
            |calls, &x| {
                *calls += 1;
                (x, *calls)
            },
        );
        assert_eq!(out.len(), 512);
        for (i, (x, calls)) in out.iter().enumerate() {
            assert_eq!(*x, i as u32);
            assert!(*calls >= 1);
        }
    }

    #[test]
    fn single_item_runs_inline() {
        let out = parallel_map(&[7u8], |&x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn parts_cover_every_element_once_at_their_offsets() {
        for (len, min_part) in [(0, 1), (5, 0), (1000, 1), (1001, 10), (4096, 1000)] {
            let mut items = vec![0u32; len];
            let spans = parallel_parts_mut(&mut items, min_part, |offset, part| {
                for (i, x) in part.iter_mut().enumerate() {
                    *x += (offset + i) as u32 + 1;
                }
                (offset, part.len())
            });
            let expect: Vec<u32> = (1..=len as u32).collect();
            assert_eq!(items, expect, "len {len}, min_part {min_part}");
            assert_eq!(spans.len(), num_threads(len / min_part.max(1)));
            let mut next = 0;
            for &(offset, n) in &spans {
                assert_eq!(offset, next, "{spans:?}");
                assert!(spans.len() == 1 || n >= min_part, "{spans:?}");
                next += n;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn one_part_runs_inline() {
        let caller = std::thread::current().id();
        let mut items = [0u8; 199];
        let ran_on = parallel_parts_mut(&mut items, 100, |offset, part| {
            (offset, part.len(), std::thread::current().id())
        });
        assert_eq!(ran_on, vec![(0, 199, caller)]);
    }

    #[cfg(unix)]
    mod read {
        use super::*;

        fn scratch(tag: &str) -> std::path::PathBuf {
            let dir =
                std::env::temp_dir().join(format!("efd-util-read-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            dir
        }

        fn pattern(len: usize) -> Vec<u8> {
            let mut rng = crate::SplitMix64::new(len as u64);
            (0..len).map(|_| rng.next_u64() as u8 | 1).collect()
        }

        #[test]
        fn reads_what_std_reads() {
            let dir = scratch("sizes");
            for len in [
                0,
                1,
                PART_MIN_BYTES - 1,
                PART_MIN_BYTES,
                3 * PART_MIN_BYTES + 7,
            ] {
                let path = dir.join(format!("{len}.bin"));
                std::fs::write(&path, pattern(len)).unwrap();
                let bytes = read_file(&path).unwrap();
                assert!(bytes == std::fs::read(&path).unwrap(), "{len} bytes");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn a_missing_file_reads_like_std() {
            let path = Path::new("/nonexistent/efd.efdb");
            let err = read_file(path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
            assert_eq!(
                err.to_string(),
                std::fs::read(path).unwrap_err().to_string()
            );
            assert!(
                err.to_string().starts_with("No such file or directory"),
                "{err}"
            );
        }

        #[test]
        fn a_size_change_falls_back_to_a_std_read() {
            let dir = scratch("resized");
            let path = dir.join("file.bin");
            let len = 3 * PART_MIN_BYTES + 7;
            std::fs::write(&path, pattern(len)).unwrap();
            let file = File::open(&path).unwrap();
            // Taken too short, the file has bytes past the end; too
            // long, a part's read comes up short. Either way the result
            // is the whole file, with no unread zero in it.
            for stale in [0, 1, len - 1, len + 1, len + PART_MIN_BYTES] {
                let bytes = read_exact_len(&path, &file, stale).unwrap();
                assert_eq!(bytes.len(), len, "stale length {stale}");
                assert!(bytes == pattern(len), "stale length {stale}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn num_threads_respects_item_count() {
        assert_eq!(num_threads(0), 1);
        assert_eq!(num_threads(1), 1);
        assert!(num_threads(1_000_000) >= 1);
    }
}
