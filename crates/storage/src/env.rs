//! The storage environment: one buffer pool + one I/O counter + a scratch
//! directory, shared by every file an experiment touches.

use crate::buffer::BufferPool;
use crate::codec::Codec;
use crate::error::Result;
use crate::file::RecordFile;
use crate::pager::{FilePager, MemPager, ObservedPager, Pager};
use crate::stats::IoStats;
use crate::tempdir::TempDir;
use iolap_obs::Obs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How file bytes are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backing {
    /// Real files in the environment's directory.
    Disk,
    /// In-memory pagers (still fully I/O-counted). Used by unit tests and
    /// deterministic micro-benchmarks.
    Memory,
}

/// Builder for [`Env`].
pub struct EnvBuilder {
    tag: String,
    pool_pages: usize,
    backing: Backing,
    dir: Option<PathBuf>,
    obs: Obs,
}

impl EnvBuilder {
    /// Buffer pool capacity in 4 KiB pages (default 1024 = 4 MiB).
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Use in-memory pagers instead of real files.
    pub fn in_memory(mut self) -> Self {
        self.backing = Backing::Memory;
        self
    }

    /// Place files in `dir` instead of a fresh temp directory. The caller
    /// owns the directory's lifetime.
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Attach an observability handle. When it is enabled, every pager the
    /// environment creates is wrapped in an [`ObservedPager`] and the
    /// external sorter emits spans. The default (disabled) handle costs
    /// nothing and leaves pagers unwrapped.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Build the environment.
    pub fn build(self) -> Result<Env> {
        let tempdir = match (&self.backing, self.dir) {
            (Backing::Memory, _) => None,
            (Backing::Disk, Some(d)) => Some(TempDir::external(d)),
            (Backing::Disk, None) => Some(TempDir::new(&self.tag)?),
        };
        let stats = IoStats::new();
        let pool = BufferPool::new(self.pool_pages);
        Ok(Env {
            inner: Arc::new(EnvInner {
                tempdir,
                pool,
                stats,
                backing: self.backing,
                next_file: AtomicU64::new(0),
                obs: self.obs,
            }),
        })
    }
}

struct EnvInner {
    tempdir: Option<TempDir>,
    pool: BufferPool,
    stats: IoStats,
    backing: Backing,
    next_file: AtomicU64,
    obs: Obs,
}

/// A storage environment. Cloning clones the handle (shared pool & stats).
#[derive(Clone)]
pub struct Env {
    inner: Arc<EnvInner>,
}

impl Env {
    /// Start building an environment; `tag` names the scratch directory.
    pub fn builder(tag: &str) -> EnvBuilder {
        EnvBuilder {
            tag: tag.to_string(),
            pool_pages: 1024,
            backing: Backing::Disk,
            dir: None,
            obs: Obs::disabled(),
        }
    }

    /// A disk-backed environment in a fresh temp directory with the default
    /// 4 MiB pool.
    pub fn new_temp(tag: &str) -> Result<Self> {
        Self::builder(tag).build()
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// The observability handle this environment was built with
    /// (disabled unless [`EnvBuilder::obs`] installed a live one).
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Create a new record file named `name` (disk mode) or anonymous
    /// (memory mode).
    pub fn create_file<T, C: Codec<T>>(&self, name: &str, codec: C) -> Result<RecordFile<T, C>> {
        let mut pager: Box<dyn Pager> = match self.inner.backing {
            Backing::Memory => Box::new(MemPager::new(self.inner.stats.clone())),
            Backing::Disk => {
                let dir =
                    self.inner.tempdir.as_ref().expect("disk backing implies a directory").path();
                let n = self.inner.next_file.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("{name}.{n}.pages"));
                Box::new(FilePager::create(path, self.inner.stats.clone())?)
            }
        };
        if let Some(metrics) = self.inner.obs.metrics() {
            pager = Box::new(ObservedPager::new(pager, metrics));
        }
        let id = self.inner.pool.register(pager);
        Ok(RecordFile::new(self.inner.pool.clone(), id, codec))
    }

    /// Create an anonymous scratch file (used by the external sorter).
    pub fn create_temp_file<T, C: Codec<T>>(&self, codec: C) -> Result<RecordFile<T, C>> {
        self.create_file("scratch", codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::U64Codec;

    #[test]
    fn disk_env_creates_files_in_tempdir() {
        let env = Env::new_temp("env-test").unwrap();
        let mut f = env.create_file("x", U64Codec).unwrap();
        f.push(&1).unwrap();
        assert_eq!(f.get(0).unwrap(), 1);
    }

    #[test]
    fn memory_env_counts_io() {
        let env = Env::builder("env-mem").pool_pages(2).in_memory().build().unwrap();
        let mut f = env.create_file("x", U64Codec).unwrap();
        for i in 0..3000u64 {
            f.push(&i).unwrap(); // ~6 pages through a 2-page pool → evictions
        }
        assert!(env.stats().writes() > 0);
    }

    #[test]
    fn observed_env_mirrors_io_into_metrics() {
        use iolap_obs::{Obs, RingSink};
        use std::sync::Arc;

        // Same workload through a plain env and an observed env: the
        // accounted IoStats must be identical, and the observed env must
        // additionally carry pager counters and extsort spans.
        let workload = |env: &Env| {
            let mut f = env.create_file("x", U64Codec).unwrap();
            for i in (0..4096u64).rev() {
                f.push(&i).unwrap();
            }
            let sorted =
                crate::extsort::external_sort(env, f, crate::extsort::SortBudget::pages(2), |v| *v)
                    .unwrap();
            assert_eq!(sorted.len(), 4096);
            env.stats().snapshot()
        };

        let plain = Env::builder("env-plain").pool_pages(8).in_memory().build().unwrap();
        let ring = Arc::new(RingSink::new(4096));
        let obs = Obs::with_sink(ring.clone());
        let observed =
            Env::builder("env-obs").pool_pages(8).in_memory().obs(obs.clone()).build().unwrap();
        assert!(observed.obs().is_enabled());

        let io_plain = workload(&plain);
        let io_observed = workload(&observed);
        assert_eq!(io_plain, io_observed, "observation must not change accounted I/O");

        let metrics = obs.metrics().unwrap();
        assert_eq!(metrics.counter("pager.reads").get(), io_observed.reads);
        assert_eq!(metrics.counter("pager.writes").get(), io_observed.writes);
        assert!(metrics.counter("extsort.merge_passes").get() >= 1);
        assert!(ring.events().iter().any(|e| e.name == "extsort.run_generation"));
    }

    #[test]
    fn clones_share_pool_and_stats() {
        let env = Env::builder("env-clone").in_memory().build().unwrap();
        let env2 = env.clone();
        let mut f = env.create_file("x", U64Codec).unwrap();
        f.push(&5).unwrap();
        f.purge_cache().unwrap();
        let before = env2.stats().snapshot();
        let _ = f.get(0).unwrap();
        assert_eq!((env2.stats().snapshot() - before).reads, 1);
    }
}
