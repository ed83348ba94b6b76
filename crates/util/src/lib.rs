//! # hisres-util
//!
//! Zero-dependency substrates for the HisRES workspace. Every module here
//! replaces a crates.io dependency so the whole workspace builds and tests
//! with `--offline` and an empty registry:
//!
//! | Module | Replaces | Surface |
//! |---|---|---|
//! | [`rng`] | `rand` | seedable xoshiro256\*\* (`StdRng`), `Rng`/`SeedableRng` traits, `gen`/`gen_range`/`gen_bool`/`fill`/`shuffle`, Box–Muller normal sampling |
//! | [`json`] | `serde` + `serde_json` | `Value` tree, recursive-descent parser, escaping serializer, `ToJson`/`FromJson` traits, `impl_json!` derive-macro stand-in |
//! | [`check`] | `proptest` | `Strategy` combinators, seeded runner with failing-seed reporting, `props!`/`prop_assert!`/`prop_assume!` macros |
//! | [`bench`] | `hdrhistogram` | `LatencyRecorder`: a fixed ring of the last 4,096 request latencies with nearest-rank percentiles, for serving stats |
//! | [`fsio`] | `tempfile`/`atomicwrites` | atomic temp-file + fsync + rename writes, a versioned + checksummed checkpoint envelope, and scripted fault injection (writes *and* reads) for crash tests |
//! | [`retry`] | `backoff`/`retry` | bounded retry with deterministic exponential backoff and a caller-supplied transient-error predicate |
//! | [`pool`] | `rayon` | persistent worker pool (`std::thread` + channels), disjoint-output `par_chunks_mut` partitioning that is bit-identical across thread counts, `HISRES_THREADS`/`--threads` sizing, scoped `with_threads` overrides, named `spawn_service` threads for blocking I/O |
//! | [`sync`] | `crossbeam-channel` | bounded MPMC queue with non-blocking `try_push` rejection (admission control), deadline `pop_timeout`, and close-and-drain shutdown |
//! | [`wal`] | `okaywal`/log crates | append-only write-ahead log: length-prefixed FNV-1a-checksummed records, fsync'd batch appends, torn-tail truncation on open, and a Skip/Abort/Truncate corrupt-record policy |
//! | [`alloc`] | `dhat`/`stats_alloc` | counting `#[global_allocator]` wrapper over `System` for zero-allocation regression tests of the serving kernels |
//!
//! Beyond removing the network from the build, owning the PRNG makes seeded
//! randomness an explicit reproducibility contract: the synthetic datasets,
//! parameter initialisation and training dynamics of every model in this
//! workspace are bit-stable across machines and toolchains.

pub mod alloc;
pub mod bench;
pub mod check;
pub mod fsio;
pub mod json;
pub mod pool;
pub mod retry;
pub mod rng;
pub mod sync;
pub mod wal;
