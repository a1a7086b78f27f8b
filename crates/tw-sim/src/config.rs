//! Application configuration: services, threading models, endpoint
//! behaviour, and the derivation of the static call graph.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tw_model::callgraph::{CallGraph, CallGraphError, DependencySpec, Stage};
use tw_model::ids::{Catalog, Endpoint, OperationId, ServiceId};
use tw_stats::sampler::DelayDistribution;

/// How a service schedules request handling onto OS threads. This controls
/// which syscall thread ids the capture layer observes, and therefore
/// whether the vPath/DeepFlow baseline's assumptions hold (paper §2.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThreadingModel {
    /// A pool of worker threads; each request occupies one thread from
    /// `recv` to `send`-response, including time blocked on backends.
    /// vPath's assumptions hold here.
    BlockingPool { threads: u16 },
    /// RPC-library model (gRPC/Thrift): a small set of I/O threads perform
    /// the network syscalls and hand requests off to invisible worker
    /// threads. The captured thread ids are the I/O threads', which
    /// multiplex many concurrent requests — breaking vPath.
    RpcPool { io_threads: u16, workers: u16 },
    /// Single-threaded asynchronous event loop (Node.js-like): every
    /// syscall happens on thread 0 and any number of requests are in
    /// flight concurrently.
    AsyncEventLoop,
}

impl ThreadingModel {
    /// Number of requests that can be processed concurrently.
    pub fn concurrency_limit(&self) -> Option<u16> {
        match *self {
            ThreadingModel::BlockingPool { threads } => Some(threads),
            ThreadingModel::RpcPool { workers, .. } => Some(workers),
            ThreadingModel::AsyncEventLoop => None,
        }
    }
}

/// Asynchronous disk read performed at the start of request handling
/// (paper §6.2.4: async I/O interleaving controlled by the file-size
/// standard deviation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskIo {
    /// Read duration distribution (microseconds).
    pub duration: DelayDistribution,
    /// If true the handler thread is released during the read (async I/O);
    /// if false the thread blocks (synchronous read).
    pub non_blocking: bool,
}

/// One backend call a handler may issue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallBehavior {
    /// Target endpoint.
    pub target: Endpoint,
    /// Probability the call is skipped entirely (cache hit, failure,
    /// semantic shortcut) — the dynamism class handled in paper §4.2.
    pub skip_prob: f64,
    /// Processing delay between the stage becoming ready and this call
    /// being sent (models per-call serialization work).
    pub send_gap: DelayDistribution,
    /// Exclusive-choice group: among calls of the same stage sharing a
    /// group id, exactly one executes per request, chosen by `weight`
    /// (models A/B routing; paper §6.4.2).
    pub exclusive_group: Option<u32>,
    /// Relative weight within the exclusive group.
    pub weight: f64,
    /// Probability the call is issued twice (a retry after a transient
    /// failure). This is the dynamism class the paper explicitly leaves
    /// to future work (§7 "Handling variations in the call graph"); the
    /// `ext3_retries` experiment probes how reconstruction degrades.
    pub retry_prob: f64,
}

impl CallBehavior {
    /// A plain always-issued call with the given send gap.
    pub fn new(target: Endpoint, send_gap: DelayDistribution) -> Self {
        CallBehavior {
            target,
            skip_prob: 0.0,
            send_gap,
            exclusive_group: None,
            weight: 1.0,
            retry_prob: 0.0,
        }
    }

    pub fn with_skip_prob(mut self, p: f64) -> Self {
        self.skip_prob = p;
        self
    }

    pub fn in_group(mut self, group: u32, weight: f64) -> Self {
        self.exclusive_group = Some(group);
        self.weight = weight;
        self
    }
}

/// One stage of a handler: calls issued concurrently after the previous
/// stage fully completed (sequential dependency between stages — the
/// paper's "dependency order").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageBehavior {
    /// Processing delay before the stage's calls are issued.
    pub gap: DelayDistribution,
    pub calls: Vec<CallBehavior>,
}

impl StageBehavior {
    pub fn new(gap: DelayDistribution, calls: Vec<CallBehavior>) -> Self {
        StageBehavior { gap, calls }
    }
}

/// Behaviour of one served endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointBehavior {
    /// Optional disk read at handling start.
    pub disk_io: Option<DiskIo>,
    /// Processing before the first stage.
    pub pre_delay: DelayDistribution,
    pub stages: Vec<StageBehavior>,
    /// Processing after the last stage, before the response is sent.
    pub post_delay: DelayDistribution,
    /// Extra latency (microseconds) added to `post_delay` for requests
    /// tagged "slow" by the workload — the §6.4.1 anomaly-injection knob.
    pub slow_tag_extra_us: f64,
}

impl EndpointBehavior {
    /// A leaf endpoint: pure local processing.
    pub fn leaf(processing: DelayDistribution) -> Self {
        EndpointBehavior {
            disk_io: None,
            pre_delay: processing,
            stages: vec![],
            post_delay: DelayDistribution::Constant { value: 0.0 },
            slow_tag_extra_us: 0.0,
        }
    }

    pub fn with_stages(
        pre: DelayDistribution,
        stages: Vec<StageBehavior>,
        post: DelayDistribution,
    ) -> Self {
        EndpointBehavior {
            disk_io: None,
            pre_delay: pre,
            stages,
            post_delay: post,
            slow_tag_extra_us: 0.0,
        }
    }

    pub fn with_disk_io(mut self, io: DiskIo) -> Self {
        self.disk_io = Some(io);
        self
    }

    pub fn with_slow_tag_extra_us(mut self, us: f64) -> Self {
        self.slow_tag_extra_us = us;
        self
    }
}

/// One service: replicas, threading model, served endpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceConfig {
    pub id: ServiceId,
    pub replicas: u16,
    pub threading: ThreadingModel,
    pub endpoints: Vec<(OperationId, EndpointBehavior)>,
}

impl ServiceConfig {
    pub fn behavior(&self, op: OperationId) -> Option<&EndpointBehavior> {
        self.endpoints
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, b)| b)
    }
}

/// A complete simulated application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppConfig {
    pub catalog: Catalog,
    pub services: Vec<ServiceConfig>,
    /// Network one-way delay between any two containers.
    pub network_delay: DelayDistribution,
    /// RNG seed; every run with the same config is identical.
    pub seed: u64,
}

impl AppConfig {
    /// Look up a service's config.
    pub fn service(&self, id: ServiceId) -> Option<&ServiceConfig> {
        self.services.iter().find(|s| s.id == id)
    }

    pub fn service_mut(&mut self, id: ServiceId) -> Option<&mut ServiceConfig> {
        self.services.iter_mut().find(|s| s.id == id)
    }

    /// Behaviour of an endpoint, if configured.
    pub fn behavior(&self, ep: Endpoint) -> Option<&EndpointBehavior> {
        self.service(ep.service)?.behavior(ep.op)
    }

    /// Derive the static call graph + dependency order from the config —
    /// what the operator would provide, or what a test environment learns
    /// (paper §5.2). Every possible call (including skippable and
    /// exclusive-variant calls) appears; dynamism means a request may
    /// traverse a subset.
    pub fn call_graph(&self) -> CallGraph {
        let mut g = CallGraph::new();
        for svc in &self.services {
            for (op, beh) in &svc.endpoints {
                let stages = beh
                    .stages
                    .iter()
                    .map(|st| Stage::parallel(st.calls.iter().map(|c| c.target).collect()))
                    .collect();
                g.insert(Endpoint::new(svc.id, *op), DependencySpec::new(stages));
            }
        }
        g
    }

    /// Sanity-check the configuration: every call target must be a
    /// configured endpoint, the call graph must validate, and exclusive
    /// groups must have positive total weight.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut known: HashMap<Endpoint, ()> = HashMap::new();
        for svc in &self.services {
            if svc.replicas == 0 {
                return Err(ConfigError::ZeroReplicas { service: svc.id });
            }
            for (op, _) in &svc.endpoints {
                known.insert(Endpoint::new(svc.id, *op), ());
            }
        }
        for svc in &self.services {
            for (op, beh) in &svc.endpoints {
                let served = Endpoint::new(svc.id, *op);
                for st in &beh.stages {
                    let mut group_weight: HashMap<u32, f64> = HashMap::new();
                    for call in &st.calls {
                        if !known.contains_key(&call.target) {
                            return Err(ConfigError::UnknownTarget {
                                served,
                                target: call.target,
                            });
                        }
                        if !(0.0..=1.0).contains(&call.skip_prob) {
                            return Err(ConfigError::ProbabilityOutOfRange {
                                what: "skip_prob",
                                target: call.target,
                                value: call.skip_prob,
                            });
                        }
                        if !(0.0..=1.0).contains(&call.retry_prob) {
                            return Err(ConfigError::ProbabilityOutOfRange {
                                what: "retry_prob",
                                target: call.target,
                                value: call.retry_prob,
                            });
                        }
                        if let Some(gr) = call.exclusive_group {
                            if call.weight < 0.0 {
                                return Err(ConfigError::ProbabilityOutOfRange {
                                    what: "exclusive weight",
                                    target: call.target,
                                    value: call.weight,
                                });
                            }
                            *group_weight.entry(gr).or_default() += call.weight;
                        }
                    }
                    for (gr, w) in group_weight {
                        if w <= 0.0 {
                            return Err(ConfigError::EmptyExclusiveGroup { group: gr });
                        }
                    }
                }
            }
        }
        self.call_graph().validate().map_err(ConfigError::Graph)
    }
}

/// Validation failures for an [`AppConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    ZeroReplicas {
        service: ServiceId,
    },
    UnknownTarget {
        served: Endpoint,
        target: Endpoint,
    },
    ProbabilityOutOfRange {
        what: &'static str,
        target: Endpoint,
        value: f64,
    },
    EmptyExclusiveGroup {
        group: u32,
    },
    Graph(CallGraphError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroReplicas { service } => {
                write!(f, "service {service:?} has zero replicas")
            }
            ConfigError::UnknownTarget { served, target } => {
                write!(f, "endpoint {served} calls unknown target {target}")
            }
            ConfigError::ProbabilityOutOfRange {
                what,
                target,
                value,
            } => write!(f, "{what} = {value} out of range on call to {target}"),
            ConfigError::EmptyExclusiveGroup { group } => {
                write!(f, "exclusive group {group} has zero total weight")
            }
            ConfigError::Graph(e) => write!(f, "call graph invalid: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> DelayDistribution {
        DelayDistribution::Constant { value: v }
    }

    fn tiny_app() -> AppConfig {
        let mut catalog = Catalog::new();
        let a = catalog.service("a");
        let b = catalog.service("b");
        let op = catalog.operation("get");
        AppConfig {
            catalog,
            services: vec![
                ServiceConfig {
                    id: a,
                    replicas: 1,
                    threading: ThreadingModel::BlockingPool { threads: 4 },
                    endpoints: vec![(
                        op,
                        EndpointBehavior::with_stages(
                            us(10.0),
                            vec![StageBehavior::new(
                                us(1.0),
                                vec![CallBehavior::new(Endpoint::new(b, op), us(0.0))],
                            )],
                            us(5.0),
                        ),
                    )],
                },
                ServiceConfig {
                    id: b,
                    replicas: 2,
                    threading: ThreadingModel::AsyncEventLoop,
                    endpoints: vec![(op, EndpointBehavior::leaf(us(20.0)))],
                },
            ],
            network_delay: us(100.0),
            seed: 1,
        }
    }

    #[test]
    fn valid_config_passes() {
        assert_eq!(tiny_app().validate(), Ok(()));
    }

    #[test]
    fn call_graph_derivation() {
        let app = tiny_app();
        let g = app.call_graph();
        let a = app.catalog.lookup_service("a").unwrap();
        let b = app.catalog.lookup_service("b").unwrap();
        let op = app.catalog.lookup_operation("get").unwrap();
        let spec = g.spec(Endpoint::new(a, op));
        assert_eq!(spec.num_calls(), 1);
        assert_eq!(spec.stages[0].calls[0], Endpoint::new(b, op));
        assert!(g.spec(Endpoint::new(b, op)).is_leaf());
    }

    #[test]
    fn unknown_target_rejected() {
        let mut app = tiny_app();
        let bogus = Endpoint::new(ServiceId(42), OperationId(7));
        app.services[0].endpoints[0].1.stages[0]
            .calls
            .push(CallBehavior::new(bogus, us(0.0)));
        assert!(app.validate().is_err());
    }

    #[test]
    fn zero_replicas_rejected() {
        let mut app = tiny_app();
        app.services[1].replicas = 0;
        assert!(app.validate().is_err());
    }

    #[test]
    fn bad_skip_prob_rejected() {
        let mut app = tiny_app();
        app.services[0].endpoints[0].1.stages[0].calls[0].skip_prob = 1.5;
        assert!(app.validate().is_err());
    }

    #[test]
    fn concurrency_limits() {
        assert_eq!(
            ThreadingModel::BlockingPool { threads: 8 }.concurrency_limit(),
            Some(8)
        );
        assert_eq!(
            ThreadingModel::RpcPool {
                io_threads: 2,
                workers: 16
            }
            .concurrency_limit(),
            Some(16)
        );
        assert_eq!(ThreadingModel::AsyncEventLoop.concurrency_limit(), None);
    }

    #[test]
    fn builder_helpers() {
        let ep = Endpoint::new(ServiceId(1), OperationId(0));
        let c = CallBehavior::new(ep, us(1.0))
            .with_skip_prob(0.25)
            .in_group(3, 2.0);
        assert_eq!(c.skip_prob, 0.25);
        assert_eq!(c.exclusive_group, Some(3));
        assert_eq!(c.weight, 2.0);
        let b = EndpointBehavior::leaf(us(5.0)).with_slow_tag_extra_us(40_000.0);
        assert_eq!(b.slow_tag_extra_us, 40_000.0);
        assert!(b.stages.is_empty());
    }
}
