//! Set-up: everything that has to exist before the first timed request —
//! corpus, index, the images and shard layouts the workload touches, and
//! the serving tier. Each step is timed from outside, so `setup_s` is the
//! sum a user would wait and the `*.build_s` layer metrics are its parts.

use std::time::{Duration, Instant};

use ipm_core::{EngineConfig, MinerConfig, PhraseMiner, QueryEngine};
use ipm_corpus::synth::SynthConfig;
use ipm_server::{
    Client, HedgeConfig, Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle,
};

use crate::affinity;
use crate::workload::Spec;

/// Worker threads of every server the harness spawns.
pub const SERVER_WORKERS: usize = 2;
/// Scatter fanout of the routed workload.
pub const FANOUT: usize = 2;
/// Documents of the `reuters_like` corpus the contract runs use.
pub const DEFAULT_DOCS: usize = 2_000;

/// Which corpus a run builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusChoice {
    /// `reuters_like()` cut to this many documents.
    Reuters(usize),
    /// `synth::tiny()` — the 400-document smoke corpus.
    Tiny,
}

impl CorpusChoice {
    pub fn config(self) -> SynthConfig {
        match self {
            CorpusChoice::Reuters(docs) => SynthConfig {
                num_docs: docs,
                ..ipm_corpus::synth::reuters_like()
            },
            CorpusChoice::Tiny => ipm_corpus::synth::tiny(),
        }
    }

    pub fn label(self) -> String {
        match self {
            CorpusChoice::Reuters(docs) => format!("reuters_like-{docs}"),
            CorpusChoice::Tiny => "synth-tiny".to_owned(),
        }
    }
}

/// Wall time of each set-up step, seconds (`0.0` for a step the workload
/// does not need).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub index_build_s: f64,
    pub disk_build_s: f64,
    pub block_build_s: f64,
    pub layout_build_s: f64,
    pub spawn_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s
            + self.index_build_s
            + self.disk_build_s
            + self.block_build_s
            + self.layout_build_s
            + self.spawn_s
    }
}

/// A built engine behind a live serving tier.
pub struct Fixture {
    pub engine: QueryEngine,
    /// The shard servers (one for a direct workload, two behind a router).
    pub servers: Vec<ServerHandle>,
    pub router: Option<RouterHandle>,
    /// Where the workload's lines go: the router if there is one.
    pub addr: String,
    pub times: SetupTimes,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// A router over `servers`, one shard each. A shard's primary is its own
/// server and its hedge replica the next one (shard servers are
/// fanout-agnostic), so hedging has somewhere to go.
pub fn spawn_router(
    engine: &QueryEngine,
    servers: &[ServerHandle],
    hedge: HedgeConfig,
) -> std::io::Result<RouterHandle> {
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let shards = (0..addrs.len())
        .map(|s| vec![addrs[s].clone(), addrs[(s + 1) % addrs.len()].clone()])
        .collect();
    Router::spawn(
        engine.clone(),
        RouterConfig {
            shards,
            hedge,
            ..RouterConfig::default()
        },
    )
}

impl Fixture {
    /// Builds everything `spec` needs and brings the serving tier up.
    pub fn build(spec: &Spec, choice: CorpusChoice) -> std::io::Result<Self> {
        let mut times = SetupTimes::default();
        affinity::unpin();
        let (corpus, t) = timed(|| ipm_corpus::synth::generate(&choice.config()).0);
        times.generate_s = t;
        let (miner, t) = timed(|| PhraseMiner::build(&corpus, MinerConfig::default()));
        times.index_build_s = t;
        drop(corpus);
        let mut config = EngineConfig::default();
        if !spec.caches {
            config.cache = None;
        }
        let engine = QueryEngine::with_config(miner, config);
        // The images and shard layouts are built lazily by the first
        // request that needs them (a multi-second stall at this corpus
        // size); forcing them here books that cost to set-up, where a
        // deployment would pay it, instead of to the first timed request.
        if spec.disk {
            times.disk_build_s = timed(|| engine.disk()).1;
        }
        if spec.block {
            times.block_build_s = timed(|| engine.block()).1;
        }
        if spec.routed {
            let probe = crate::workload::hot_words(&engine.miner())[0].clone();
            times.layout_build_s = timed(|| engine.request(probe).shards(FANOUT).run()).1;
        }
        let started = Instant::now();
        if !affinity::pin_to_serving_core() {
            eprintln!("could not pin threads: the scheduler places server and generator");
        }
        let shard_count = if spec.routed { FANOUT } else { 1 };
        let servers = (0..shard_count)
            .map(|_| {
                Server::spawn(
                    engine.clone(),
                    ServerConfig {
                        workers: SERVER_WORKERS,
                        ..ServerConfig::default()
                    },
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let router = spec
            .routed
            .then(|| spawn_router(&engine, &servers, HedgeConfig::default()))
            .transpose()?;
        let addr = match &router {
            Some(r) => r.addr().to_string(),
            None => servers[0].addr().to_string(),
        };
        // Up means answering: one ping through the front door.
        Client::connect_with_retries(&addr, 25, Duration::from_millis(20))?.ping()?;
        times.spawn_s = started.elapsed().as_secs_f64();
        Ok(Self {
            engine,
            servers,
            router,
            addr,
            times,
        })
    }

    /// Graceful shutdown: router first, then the shard servers; joins
    /// every thread the tier started.
    pub fn shutdown(mut self) {
        if let Some(mut r) = self.router.take() {
            r.shutdown();
        }
        for mut s in self.servers.drain(..) {
            s.shutdown();
        }
    }
}
