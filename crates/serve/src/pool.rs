//! A std-only worker pool for corpus-scale scheduling.
//!
//! The paper's evaluation schedules 1,327 independent loops; nothing about
//! one loop's schedule depends on another's, so the corpus is
//! embarrassingly parallel. [`par_map`] fans a slice out over up to
//! `threads` scoped `std::thread` workers that pull chunks of 8 items off
//! a shared atomic cursor (dynamic chunking, so a few expensive loops
//! cannot strand a worker), and reassembles the results **in input
//! order**. Because every result is keyed by its input index before
//! merging, the output is byte-for-byte identical for any thread count —
//! determinism is a property of the merge, not of the OS scheduler.
//!
//! No more workers are spawned than there are chunks, and work that fits
//! one chunk runs inline on the calling thread: a worker costs a thread
//! spawn and join (tens of microseconds), against microseconds of work
//! per item in a small service batch.
//!
//! Two failure-handling layers sit on top of the plain map:
//!
//! * [`try_par_map`] catches a panic in the user closure per *item* and
//!   returns it as a structured [`WorkerPanic`] carrying the input index
//!   of the item that blew up — a long-running service turns that into a
//!   per-request failure response instead of process death, and a batch
//!   driver can at least say *which* loop was at fault. The index is the
//!   item's position in the input, so the report is identical at any
//!   thread count.
//! * [`par_map`] still propagates the panic (batch drivers want to die on
//!   a scheduler bug), but with the item and chunk index attached instead
//!   of a bare `expect`.
//!
//! No external dependencies: `std::thread::scope` + `AtomicUsize` only.

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many items a worker claims per visit to the shared cursor. Small
/// enough to balance a skewed corpus (one 163-op loop costs hundreds of
/// 4-op loops), large enough to keep cursor contention negligible.
const CHUNK: usize = 8;

/// The number of worker threads to use when the caller does not specify:
/// [`std::thread::available_parallelism`], clamped to the pool's tested
/// range, or 1 if the platform cannot say.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 64)
}

/// Resolves a `--threads N` (or `--threads=N`) flag to a worker count,
/// [`default_threads`] when the flag is absent. Zero is rejected like any
/// malformed value (see [`flag_or_exit`]): a silently single-threaded run
/// skews wall numbers without failing anything.
pub fn threads_or_exit(args: &[String], usage: &str) -> usize {
    flag_or_exit(args, "--threads", usage).map_or_else(default_threads, NonZeroUsize::get)
}

/// The process's arguments, program name first, once every one of them
/// is declared by `usage`: a `--flag` it names (with its value when it
/// names one, as `--flag V` or `--flag=V`) or one of the positional
/// arguments it lists. Any other argument — an unknown flag, a value
/// given to a switch, one positional too many — is a hard error like a
/// malformed value (see [`flag_or_exit`]): a misspelt flag must not run
/// the default. The declared names are read from `usage` itself, so
/// there is no second list to drift from it. Every driver reads its
/// arguments through here.
pub fn args_or_exit(usage: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    if let Err(e) = check_args(&args[1..], usage) {
        eprintln!("error: {e}");
        eprintln!("{usage}");
        std::process::exit(2);
    }
    args
}

/// The positional arguments of `args` (as [`args_or_exit`] returns
/// them, program name first) in order, wherever they stand among the
/// flags: every argument that is neither a `--flag` declared by `usage`
/// nor the value of one. Arguments `usage` does not declare exit like
/// [`args_or_exit`].
pub fn positionals<'a>(args: &'a [String], usage: &str) -> Vec<&'a str> {
    check_args(&args[1..], usage).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// [`args_or_exit`] without the exit, over the arguments after the
/// program name: the positional arguments, when every argument is
/// declared.
fn check_args<'a>(args: &'a [String], usage: &str) -> Result<Vec<&'a str>, String> {
    let (flags, declared_positionals) = declared(usage);
    let mut seen = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if seen.len() == declared_positionals {
                return Err(format!("unexpected argument {arg:?}"));
            }
            seen.push(arg.as_str());
            continue;
        }
        let (name, inline) = arg
            .split_once('=')
            .map_or((arg.as_str(), false), |(n, _)| (n, true));
        match flags.iter().find(|&&(flag, _)| flag == name) {
            None => return Err(format!("unknown flag {name}")),
            Some(&(_, false)) if inline => return Err(format!("{name} takes no value")),
            Some(&(_, true)) if !inline => _ = it.next(),
            Some(_) => {}
        }
    }
    Ok(seen)
}

/// What a usage text declares: every `--flag` with whether a value
/// follows it, and the number of positional arguments. The text is
/// `usage: PROGRAM ...`, each further form starting with `PROGRAM` again;
/// a flag takes a value when its bracket stays open and a placeholder
/// follows (`[--seed H]`, `--dedup FILE`), and is a switch otherwise
/// (`[--latency]`).
fn declared(usage: &str) -> (Vec<(&str, bool)>, usize) {
    let mut words = usage
        .split_whitespace()
        .skip_while(|&w| w != "usage:")
        .skip(1)
        .peekable();
    let program = words.next().unwrap_or_default();
    let (mut flags, mut positionals) = (Vec::new(), 0);
    while let Some(raw) = words.next() {
        let word = raw.trim_matches(['[', ']']);
        if word.starts_with("--") {
            let takes_value = !raw.ends_with(']')
                && words
                    .next_if(|next| {
                        let next = next.trim_start_matches('[');
                        !next.starts_with("--") && next != program
                    })
                    .is_some();
            flags.push((word, takes_value));
        } else if word != program {
            positionals += 1;
        }
    }
    (flags, positionals)
}

/// Reads `--name V` (or `--name=V`) from an argument list, parsed as `T`;
/// `None` when the flag is absent. A flag that is present but has a
/// missing or malformed value is a hard error, never a silent default:
/// the problem and `usage` go to stderr and the process exits with
/// status 2. Every driver flag goes through here.
pub fn flag_or_exit<T>(args: &[String], name: &str, usage: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    parse_flag(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// [`flag_or_exit`] without the exit: `Ok(None)` when the flag is
/// absent, `Err` with a message naming the flag when its value is
/// missing or does not parse.
fn parse_flag<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if a == name {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))?
        } else if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            v
        } else {
            continue;
        };
        return match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(e) => Err(format!("invalid {name} value {value:?}: {e}")),
        };
    }
    Ok(None)
}

/// A panic caught inside a pool worker, attributed to the input item
/// whose closure raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Input index of the item being processed when the panic fired.
    /// Determined by the input, not by worker arrival order, so error
    /// reports are identical at any thread count.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {} (chunk {}): {}",
            self.index,
            self.index / CHUNK,
            self.message
        )
    }
}

/// Stringifies a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item of `items` using up to `threads` worker
/// threads and returns the results in input order.
///
/// A worker claims `CHUNK` (8) items at a time, so at most one worker per
/// chunk is spawned: `min(threads, ⌈items / 8⌉)`. When that is one (at
/// `threads <= 1`, or for at most 8 items) the map runs inline on the
/// calling thread, with no spawn and no atomics — the deterministic
/// baseline the parallel path must reproduce exactly. `f` receives
/// `(index, &item)` so callers can key per-item state (seeds, labels) off
/// the stable input position rather than off arrival order.
///
/// # Panics
///
/// Propagates a panic from any worker after all workers have joined,
/// re-raised with the failing item's input index, its chunk index, and
/// the original payload text attached. Callers that must survive a
/// worker panic use [`try_par_map`] instead.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let results = try_par_map(items, threads, f);
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("corpus {p}"),
        })
        .collect()
}

/// [`par_map`] with per-item panic containment: each closure invocation
/// runs under [`catch_unwind`], and a panic becomes an
/// `Err(`[`WorkerPanic`]`)` in that item's output slot while every other
/// item still completes. The scheduling service maps the error to a
/// per-request failure response; [`par_map`] re-raises it.
///
/// Results are in input order for any thread count, and the items run
/// inline or on workers by the same rule, exactly as [`par_map`].
pub fn try_par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let call = |i: usize, item: &T| -> Result<R, WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| WorkerPanic {
            index: i,
            message: panic_message(payload),
        })
    };

    // A worker past the one per chunk would find the cursor spent, so
    // none is spawned; one worker's work runs on the calling thread.
    let workers = threads.min(items.len().div_ceil(CHUNK));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| call(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);

    let mut indexed: Vec<(usize, Result<R, WorkerPanic>)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let call = &call;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Result<R, WorkerPanic>)> = Vec::new();
                    loop {
                        let lo = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                        if lo >= items.len() {
                            break;
                        }
                        let hi = (lo + CHUNK).min(items.len());
                        for (i, item) in items[lo..hi].iter().enumerate() {
                            local.push((lo + i, call(lo + i, item)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // The closure's panics are contained per item; a panic escaping
            // the worker itself would be a pool bug, not a workload bug.
            indexed.extend(
                handle
                    .join()
                    .expect("pool worker died outside the user closure"),
            );
        }
    });

    // The merge re-imposes input order: output is independent of which
    // worker computed what, and therefore of the thread count.
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn usage_texts_declare_their_flags_and_positionals() {
        let (flags, positionals) = declared(
            "usage: scheduled [--threads N] [--latency] [--socket PATH [--conns N]]
       scheduled --gen-requests N [--backend ims|exact|sat]
       scheduled --dedup FILE",
        );
        assert_eq!(
            flags,
            [
                ("--threads", true),
                ("--latency", false),
                ("--socket", true),
                ("--conns", true),
                ("--gen-requests", true),
                ("--backend", true),
                ("--dedup", true),
            ]
        );
        assert_eq!(positionals, 0);
        assert_eq!(
            declared("usage: trace_report DIR [--top K]"),
            (vec![("--top", true)], 1)
        );
        assert_eq!(declared("usage: table2"), (vec![], 0));
    }

    #[test]
    fn undeclared_arguments_are_refused() {
        let usage = "usage: corpus [--loops N] [--trace DIR] [--latency]";
        let check = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            check_args(&args, usage).map(|p| p.len())
        };
        for ok in [
            &[][..],
            &["--loops", "2", "--trace", "t", "--latency"][..],
            &["--loops=2", "--trace=--latency"][..],
            &["--trace", "--bogus"][..], // a value, as flag_or_exit reads it
            &["--loops"][..],            // flag_or_exit reports the missing value
        ] {
            assert_eq!(check(ok), Ok(0), "{ok:?}");
        }
        for (bad, err) in [
            (
                &["--loops", "2", "--thread", "4"][..],
                "unknown flag --thread",
            ),
            (&["--bogus=1"][..], "unknown flag --bogus"),
            (&["--latency=1"][..], "--latency takes no value"),
            (&["--latency", "1"][..], "unexpected argument \"1\""),
            (&["extra"][..], "unexpected argument \"extra\""),
            (&["--"][..], "unknown flag --"),
        ] {
            assert_eq!(check(bad), Err(err.to_string()), "{bad:?}");
        }
        let positional = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            check_args(&args, "usage: trace_report DIR [--top K]").map(|p| p.join(" "))
        };
        assert_eq!(positional(&["dir", "--top", "3"]), Ok("dir".into()));
        assert_eq!(positional(&["--top", "3", "dir"]), Ok("dir".into()));
        assert_eq!(positional(&["--top=3", "dir"]), Ok("dir".into()));
        assert_eq!(positional(&["--top", "3"]), Ok("".into()));
        assert!(positional(&["dir", "other"]).is_err());
    }

    #[test]
    fn results_are_in_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..203).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = par_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..57).collect();
        let got = par_map(&items, 4, |i, &x| (i, x));
        for (i, &(idx, x)) in got.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(x, i);
        }
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u8> = vec![0; 100];
        let _ = par_map(&items, 8, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_zero_behaves_like_one() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(par_map(&items, 0, |_, &x| x), par_map(&items, 1, |_, &x| x));
    }

    #[test]
    fn default_threads_is_sane() {
        let t = default_threads();
        assert!((1..=64).contains(&t));
    }

    #[test]
    fn flags_parse_both_spellings() {
        use ims_core::{BackendKind, BackendSpec};
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_flag(&args(&["bin", "--threads", "4"]), "--threads"),
            Ok(Some(4))
        );
        assert_eq!(
            parse_flag(&args(&["bin", "--threads=8"]), "--threads"),
            Ok(Some(8))
        );
        assert_eq!(parse_flag::<usize>(&args(&["bin"]), "--threads"), Ok(None));
        assert_eq!(
            parse_flag(
                &args(&["bin", "--backend=portfolio(ims,exact)"]),
                "--backend"
            ),
            Ok(Some(BackendSpec::Portfolio(vec![
                BackendKind::Ims,
                BackendKind::Exact
            ])))
        );
    }

    #[test]
    fn flags_reject_missing_malformed_and_zero_values() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let err =
            |a: &[&str], name| parse_flag::<std::num::NonZeroU32>(&args(a), name).unwrap_err();
        assert_eq!(
            err(&["bin", "--threads"], "--threads"),
            "--threads requires a value"
        );
        for bad in ["abc", "1.5", "0", "-3"] {
            let msg = err(&["bin", "--pressure-limit", bad], "--pressure-limit");
            assert!(
                msg.starts_with(&format!("invalid --pressure-limit value {bad:?}")),
                "{msg}"
            );
        }
        let msg =
            parse_flag::<ims_core::BackendSpec>(&args(&["bin", "--backend", "magic"]), "--backend")
                .unwrap_err();
        assert!(
            msg.contains("magic") && msg.contains("ims, exact, sat"),
            "{msg}"
        );
    }

    #[test]
    fn try_par_map_contains_panics_per_item() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 4] {
            let got = try_par_map(&items, threads, |_, &x| {
                if x % 13 == 5 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), items.len());
            for (i, r) in got.iter().enumerate() {
                if i % 13 == 5 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert_eq!(p.message, format!("boom at {i}"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &((i as u32) * 2));
                }
            }
        }
    }

    #[test]
    fn work_that_fits_one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_, _: &u32| std::thread::current().id() == caller;
        for threads in [1, 2, 8] {
            for n in [0, 1, 2, CHUNK] {
                let items: Vec<u32> = (0..n as u32).collect();
                let got = par_map(&items, threads, on_caller);
                assert!(got.iter().all(|&c| c), "threads={threads} n={n}");
            }
            // The inline path still contains a panic per item.
            let got = try_par_map(&[0u32, 1, 2], threads, |_, &x| {
                assert!(std::thread::current().id() == caller);
                if x == 1 {
                    panic!("boom at {x}");
                }
                x
            });
            assert_eq!(got[0], Ok(0));
            assert_eq!(got[1].as_ref().unwrap_err().message, "boom at 1");
            assert_eq!(got[2], Ok(2));
        }
        // Past one chunk, two or more threads fan out to workers.
        let items: Vec<u32> = (0..CHUNK as u32 + 1).collect();
        assert!(par_map(&items, 1, on_caller).iter().all(|&c| c));
        for threads in [2, 8] {
            let got = par_map(&items, threads, on_caller);
            assert!(got.iter().all(|&c| !c), "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_display_names_item_and_chunk() {
        let p = WorkerPanic {
            index: 19,
            message: "kaput".into(),
        };
        assert_eq!(p.to_string(), "worker panicked on item 19 (chunk 2): kaput");
    }

    #[test]
    fn par_map_repropagates_with_item_attribution() {
        let items: Vec<u32> = (0..20).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |_, &x| {
                if x == 11 {
                    panic!("bad loop");
                }
                x
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "corpus worker panicked on item 11 (chunk 1): bad loop");
    }
}
